"""The import path is numpy plus the stdlib.

Every CLI call, ``repro serve`` host and sweep driver starts by
importing :mod:`repro`, so what it loads sets each run's start-up time
and memory. SciPy is needed only by BO's Gaussian process and
acquisition, which import ``scipy.linalg`` and ``scipy.special`` on
first use, and nothing in the package needs networkx (a FARSI task
graph is plain dicts). One probe runs in a fresh interpreter: importing
the whole package, building and stepping every registered environment
(FARSIGym included) and running a random walker must load no ``scipy``
module, a BO run past its warm-up must load exactly the two subpackages
it uses (never ``scipy.stats``), and no ``networkx`` module may be
loaded at any point.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

PROBE = """
import json, sys
import numpy as np

def loaded(package):
    return sorted(m for m in sys.modules if m == package or m.startswith(package + "."))

import repro, repro.cli, repro.service, repro.sweeps, repro.proxy
from repro.agents import BOAgent, make_agent, run_agent

for env_id in repro.registered_ids():
    env = repro.make(env_id)
    env.reset(seed=0)
    env.step(env.action_space.sample(np.random.default_rng(0)))
env = repro.make("DRAMGym-v0")
run_agent(make_agent("rw", env.action_space, seed=0), env, n_samples=4, seed=0)
without_bo = loaded("scipy")

agent = BOAgent(env.action_space, seed=0, n_init=2, candidate_pool=8)
run_agent(agent, env, n_samples=4, seed=0)
print(json.dumps({
    "without_bo": without_bo, "with_bo": loaded("scipy"), "networkx": loaded("networkx"),
}))
"""


@pytest.fixture(scope="module")
def loaded():
    """The probe's loaded-module lists."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True,
        text=True, timeout=120, check=True,
    ).stdout
    return json.loads(out.splitlines()[-1])


def test_scipy_loads_only_for_bo(loaded):
    assert loaded["without_bo"] == []
    with_bo = set(loaded["with_bo"])
    assert {"scipy.special", "scipy.linalg"} <= with_bo
    assert not any(m == "scipy.stats" or m.startswith("scipy.stats.") for m in with_bo)


def test_networkx_never_loads(loaded):
    assert loaded["networkx"] == []
