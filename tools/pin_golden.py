#!/usr/bin/env python3
"""Regenerate ``tests/golden_metrics.json``: pinned simulator outputs
that ``tests/test_golden_metrics.py`` re-evaluates and compares with
``==``.

Usage, from the repository root::

    python3 tools/pin_golden.py

The file holds two groups of points:

- ``envs``: for every registered environment and every one of its
  workload names, a few ``action_space.sample`` points (seeded per
  entry) with the metrics ``env.evaluate`` returned;
- ``dram_results``: the full ``asdict(SimResult)`` of the DRAM
  simulator on each device preset plus a ``row_interleaved`` device,
  over every trace name, for the default controller and sampled ones.

Floats are written with ``repr`` precision, so a JSON round trip is
exact. The numpy and Python versions the file was pinned with are
recorded, because either can move the last bits. Re-pin only when a
change is meant to alter simulator results.
"""

from __future__ import annotations

import dataclasses
import json
import platform
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np  # noqa: E402

import repro  # noqa: E402
from repro.dnn import WORKLOAD_NAMES as DNN_WORKLOAD_NAMES  # noqa: E402
from repro.dramsys import (  # noqa: E402
    DDR3_1600,
    DDR4_2400,
    LPDDR4_3200,
    TRACE_NAMES,
    ControllerConfig,
    DramSimulator,
    controller_space,
    generate_trace,
)
from repro.farsi.workloads import FARSI_WORKLOAD_NAMES  # noqa: E402

GOLDEN = REPO_ROOT / "tests" / "golden_metrics.json"

#: Workload names of each registered environment.
ENV_WORKLOADS = {
    "DRAMGym-v0": TRACE_NAMES,
    "TimeloopGym-v0": DNN_WORKLOAD_NAMES,
    "FARSIGym-v0": FARSI_WORKLOAD_NAMES,
    "MaestroGym-v0": DNN_WORKLOAD_NAMES,
}
POINTS_PER_WORKLOAD = 4

#: DRAM devices whose full ``SimResult`` is pinned, as
#: ``(preset name, address mapping)``.
DRAM_DEVICES = (
    ("DDR4-2400", "bank_interleaved"),
    ("DDR3-1600", "bank_interleaved"),
    ("LPDDR4-3200", "bank_interleaved"),
    ("DDR4-2400", "row_interleaved"),
)
DRAM_PRESETS = {dev.name: dev for dev in (DDR4_2400, DDR3_1600, LPDDR4_3200)}
DRAM_TRACE_REQUESTS = 300
DRAM_SAMPLED_CONFIGS = 2


def log(msg: str) -> None:
    print(f"[pin_golden] {msg}", file=sys.stderr, flush=True)


def pin_envs() -> list:
    if set(ENV_WORKLOADS) != set(repro.registered_ids()):
        raise SystemExit(
            f"ENV_WORKLOADS covers {sorted(ENV_WORKLOADS)}, "
            f"registry has {repro.registered_ids()}"
        )
    entries = []
    for env_id, workloads in ENV_WORKLOADS.items():
        for workload in workloads:
            seed = len(entries)
            env = repro.make(env_id, workload=workload)
            rng = np.random.default_rng(seed)
            points = []
            for _ in range(POINTS_PER_WORKLOAD):
                action = env.action_space.sample(rng)
                points.append({"action": action, "metrics": env.evaluate(action)})
            env.close()
            entries.append(
                {"env": env_id, "workload": workload, "seed": seed, "points": points}
            )
            log(f"{env_id} {workload}: {len(points)} points")
    return entries


def pin_dram_results() -> list:
    space = controller_space()
    entries = []
    for preset, mapping in DRAM_DEVICES:
        device = dataclasses.replace(DRAM_PRESETS[preset], address_mapping=mapping)
        simulator = DramSimulator(device)
        for trace_seed, trace_name in enumerate(TRACE_NAMES):
            trace = generate_trace(trace_name, DRAM_TRACE_REQUESTS, seed=trace_seed)
            rng = np.random.default_rng(len(entries))
            configs = [ControllerConfig()] + [
                ControllerConfig.from_action(space.sample(rng))
                for _ in range(DRAM_SAMPLED_CONFIGS)
            ]
            for config in configs:
                entries.append({
                    "device": preset,
                    "address_mapping": mapping,
                    "trace": trace_name,
                    "n_requests": DRAM_TRACE_REQUESTS,
                    "trace_seed": trace_seed,
                    "config": config.to_action(),
                    "result": dataclasses.asdict(simulator.simulate(config, trace)),
                })
        log(f"{preset} {mapping}: pinned")
    return entries


def main() -> int:
    golden = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "envs": pin_envs(),
        "dram_results": pin_dram_results(),
    }
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    log(f"wrote {GOLDEN.relative_to(REPO_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
