"""The names the benchmark reaches inside ``src/``.

``perfbench/`` drives the library from outside: its tracer patches
public functions by name, ``run.py`` hooks the env's step methods for
calibration, ``hosts.py`` reads ``/healthz`` counters, and ``corpus.py``
builds the warm corpus through ``SharedCacheStore.put_encoded``. Only a
change to the benchmark itself may edit ``perfbench/``, so a library
change that deletes or renames one of these names would break
``--trace 1`` runs without failing any other test. These tests read the
benchmark's modules (without writing bytecode next to them) and check
each name it needs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from repro.core.cache_store import SharedCacheStore
from repro.service import EvaluationService

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Import ``perfbench/<name>.py`` under a private module name, with
    ``perfbench/`` importable for its sibling imports."""
    spec = importlib.util.spec_from_file_location(
        f"_perfbench_{name}", PERFBENCH / f"{name}.py"
    )
    module = importlib.util.module_from_spec(spec)
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
    return module


@pytest.fixture(scope="module")
def perfbench():
    return {name: _load(name) for name in ("spans", "hosts", "run")}


def test_tracer_installs_and_uninstalls(perfbench):
    from repro.core.env import ArchGymEnv
    from repro.service import ServiceClient

    originals = {
        name: ArchGymEnv.__dict__[name]
        for name in ("step", "step_batch", "step_batch_stream")
    }
    init = ServiceClient.__dict__["__init__"]
    tracer = perfbench["spans"].Tracer()
    try:
        tracer.install()
        assert tracer._patches  # it wrapped something
        assert ArchGymEnv.__dict__["step"] is not originals["step"]
    finally:
        tracer.uninstall()
    for name, func in originals.items():
        assert ArchGymEnv.__dict__[name] is func
    assert ServiceClient.__dict__["__init__"] is init


def test_healthz_serves_every_counter_hosts_reads(perfbench):
    health = EvaluationService().health()
    assert set(perfbench["hosts"].COUNTERS) <= set(health)


def test_calibration_hooks_and_corpus_writer_exist(perfbench):
    class Speed:
        def maybe_sample(self):
            pass

    # Entering the context looks every hooked name up and wraps it.
    with perfbench["run"].calibrated(Speed()):
        pass
    assert callable(SharedCacheStore.put_encoded)
