#!/usr/bin/env python3
"""Regenerate ``digests.json``: the pinned per-trial digests every
benchmark run is checked against.

Usage, from the repository root::

    python3 perfbench/pin.py [WORKLOAD ...]

Each round of each workload's lottery is run once in its *reference*
configuration (``workloads.sweep_kwargs(reference=True)``): in-process
and serial, so ``timeloop-pool``'s digests come from an in-process run
of the same sweep and ``farsi-batched``'s from the serial ``env.step``
driver. A benchmark run therefore checks the dispatch path it measures
against the simplest path. Re-pin only when a change is meant to alter
search results.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads as wl  # noqa: E402
from corpus import copy_corpus, ensure_corpus  # noqa: E402


def log(msg: str) -> None:
    print(f"[pin] {msg}", file=sys.stderr, flush=True)


def pin(workload: wl.Workload, work: Path) -> dict:
    from repro.cli import RegistryEnvFactory
    from repro.sweeps import run_lottery_sweep

    factory = RegistryEnvFactory(workload.env_id)
    out = {}
    for r in range(workload.lottery_rounds):
        round_seed = workload.seed_base + r
        out_dir = None
        if workload.proxy:
            out_dir = work / "pin-round"
            shutil.rmtree(out_dir, ignore_errors=True)
            copy_corpus(work, out_dir)
        report = run_lottery_sweep(
            factory, seed=round_seed,
            **wl.sweep_kwargs(workload, None, out_dir, reference=True),
        )
        out[str(round_seed)] = [
            wl.digest(rec) for rec in wl.trial_records(report, workload)
        ]
        if out_dir is not None:
            shutil.rmtree(out_dir, ignore_errors=True)
        log(f"{workload.name} round {round_seed}: {out[str(round_seed)]}")
    return out


def main(argv) -> int:
    names = argv or sorted(wl.WORKLOADS)
    work = HERE / ".work"
    work.mkdir(exist_ok=True)
    digests = json.loads(wl.DIGESTS.read_text()) if wl.DIGESTS.exists() else {}
    for name in names:
        workload = wl.WORKLOADS[name]
        if workload.proxy:
            ensure_corpus(work, log)
        digests[name] = pin(workload, work)
    wl.DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
