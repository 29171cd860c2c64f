"""Golden metrics: every simulator must reproduce its pinned outputs
bit for bit.

``golden_metrics.json`` is written by ``tools/pin_golden.py``. Each
point is re-evaluated here and compared with ``==`` — no rounding and
no tolerance — so a kernel rewrite that reorders one float operation
fails. Re-pin only when a change is meant to alter simulator results.

Python 3.12 made the builtin ``sum`` of floats compensated, so the
kernels add floats in explicit left-to-right loops, which is what
``sum`` does on 3.11 and earlier. The last test re-checks every point
with the compensated ``sum`` emulated, so that holds on any interpreter.
The file records the numpy and Python versions it was pinned with; a
failure message names both next to the running ones.
"""

import builtins
import dataclasses
import json
import math
import platform
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.dramsys import (
    DDR3_1600,
    DDR4_2400,
    LPDDR4_3200,
    ControllerConfig,
    DramSimulator,
    generate_trace,
)

GOLDEN = json.loads((Path(__file__).parent / "golden_metrics.json").read_text())
PRESETS = {dev.name: dev for dev in (DDR4_2400, DDR3_1600, LPDDR4_3200)}


def _pinned_with() -> str:
    return (
        f"(pinned with numpy {GOLDEN['numpy']} on Python {GOLDEN['python']}; "
        f"running numpy {np.__version__} on Python {platform.python_version()})"
    )


def test_every_registered_env_is_pinned():
    assert {entry["env"] for entry in GOLDEN["envs"]} == set(repro.registered_ids())


@pytest.mark.parametrize(
    "entry", GOLDEN["envs"], ids=lambda e: f"{e['env']}-{e['workload']}"
)
def test_env_metrics_match_golden(entry):
    _check_env_metrics(entry)


def _check_env_metrics(entry):
    env = repro.make(entry["env"], workload=entry["workload"])
    try:
        for i, point in enumerate(entry["points"]):
            assert env.evaluate(point["action"]) == point["metrics"], (
                f"point {i} {_pinned_with()}"
            )
    finally:
        env.close()


def _device_key(entry):
    return f"{entry['device']}-{entry['address_mapping']}"


DEVICE_KEYS = sorted({_device_key(e) for e in GOLDEN["dram_results"]})


@pytest.mark.parametrize("device_key", DEVICE_KEYS)
def test_dram_sim_results_match_golden(device_key):
    _check_dram_results(device_key)


def _check_dram_results(device_key):
    entries = [e for e in GOLDEN["dram_results"] if _device_key(e) == device_key]
    first = entries[0]
    device = dataclasses.replace(
        PRESETS[first["device"]], address_mapping=first["address_mapping"]
    )
    simulator = DramSimulator(device)
    for entry in entries:
        trace = generate_trace(entry["trace"], entry["n_requests"], entry["trace_seed"])
        config = ControllerConfig.from_action(entry["config"])
        result = dataclasses.asdict(simulator.simulate(config, trace))
        assert result == entry["result"], (
            f"{entry['trace']} {entry['config']} {_pinned_with()}"
        )


_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, /, start=0):
    """The builtin ``sum`` as Python 3.12+ computes it over floats
    (Neumaier-compensated); any other input goes to the builtin."""
    values = list(iterable)
    if start != 0 or len(values) < 2 or any(type(v) is not float for v in values):
        return _BUILTIN_SUM(values, start)
    total = start + values[0]
    comp = 0.0
    for x in values[1:]:
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


def test_results_do_not_depend_on_the_builtin_sum(monkeypatch):
    assert _compensated_sum([1.0, 1e100, 1.0, -1e100]) == 2.0
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    for entry in GOLDEN["envs"]:
        _check_env_metrics(entry)
    for device_key in DEVICE_KEYS:
        _check_dram_results(device_key)
