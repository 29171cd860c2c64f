"""Fig. 8 — time to completion per agent (DRAMGym and FARSIGym).

Paper experiment: wall-clock time of each agent for a fixed number of
simulator samples. The paper's own conclusion is that wall-clock is a
*misleading* comparison basis (it conflates implementation maturity,
parallelism, and hardware), motivating sample efficiency instead — so
the assertions here are deliberately weak: every agent completes, and
agent overhead is visible but not the dominant term for the heavier
environment.

Evaluation caching is disabled so each step pays the real simulation.
"""

# BO loads SciPy on first use: import it here, or the first BO trial's time counts the import.
import scipy.linalg  # noqa: F401
import scipy.special  # noqa: F401

from repro.agents import AGENT_NAMES, make_agent, run_agent
from repro.envs.dram import DRAMGymEnv
from repro.envs.farsi_env import FARSIGymEnv

N_SAMPLES = 150


def run_fig8():
    times = {}
    for label, factory in (
        ("DRAMGym", lambda: DRAMGymEnv(workload="cloud-2", objective="power",
                                       n_requests=400, cache_size=0)),
        ("FARSIGym", lambda: FARSIGymEnv(workload="audio_decoder", cache_size=0)),
    ):
        for agent_name in AGENT_NAMES:
            env = factory()
            agent = make_agent(agent_name, env.action_space, seed=2)
            result = run_agent(agent, env, n_samples=N_SAMPLES, seed=2)
            times[(label, agent_name)] = (
                result.wall_time_s, env.stats.total_sim_time
            )
    return times


def test_fig8_time_to_completion(run_once):
    times = run_once(run_fig8)

    print("\n=== Fig. 8: time to completion (s), 150 samples/agent ===")
    print(f"{'env':10s} {'agent':6s} {'total':>9s} {'sim':>9s} {'overhead':>9s}")
    for (label, agent_name), (total, sim) in times.items():
        print(f"{label:10s} {agent_name:6s} {total:9.3f} {sim:9.3f} "
              f"{total - sim:9.3f}")

    for (label, agent_name), (total, sim) in times.items():
        assert total > 0 and sim >= 0
        assert total >= sim - 1e-6

    # BO carries the largest algorithmic overhead (GP refits) — the
    # paper's point that per-agent runtimes are not comparable
    dram_overhead = {
        a: times[("DRAMGym", a)][0] - times[("DRAMGym", a)][1]
        for a in AGENT_NAMES
    }
    assert dram_overhead["bo"] == max(dram_overhead.values()), (
        f"expected BO to dominate overhead: {dram_overhead}"
    )
