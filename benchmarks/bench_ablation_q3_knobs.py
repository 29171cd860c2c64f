"""Ablation — the Q3 exploration/exploitation knobs (paper §4, Table 2).

The ablation targets: each agent family exposes one headline
exploration knob (ACO's greediness, BO's acquisition function, GA's
mutation rate, RL's algorithm variant). These benches sweep each knob
in isolation on a fixed environment and verify the knob actually moves
behaviour — the premise behind the hyperparameter lottery.
"""

import numpy as np

from repro.agents import ACOAgent, BOAgent, GAAgent, RLAgent, run_agent
from repro.envs.dram import DRAMGymEnv

N_SAMPLES = 150
SEEDS = (0, 1, 2)


def make_env():
    return DRAMGymEnv(workload="cloud-2", objective="latency", n_requests=250)


def _mean_best(agent_factory):
    scores = []
    for seed in SEEDS:
        env = make_env()
        agent = agent_factory(env, seed)
        res = run_agent(agent, env, n_samples=N_SAMPLES, seed=seed)
        scores.append(res.best_fitness)
    return float(np.mean(scores))


def test_ablation_aco_greediness(run_once):
    """Fully greedy ants must converge (entropy drop) harder than fully
    exploratory ants, and both extremes must complete."""

    def run():
        out = {}
        for greediness in (0.0, 0.5, 0.95):
            env = make_env()
            agent = ACOAgent(env.action_space, seed=1, n_ants=8,
                             greediness=greediness, evaporation_rate=0.3)
            res = run_agent(agent, env, n_samples=N_SAMPLES, seed=1)
            out[greediness] = (res.best_fitness, agent.trail_entropy())
        return out

    results = run_once(run)
    print("\n=== ablation: ACO greediness ===")
    for g, (fitness, entropy) in results.items():
        print(f"  greediness={g:4.2f}  best={fitness:10.4g}  trail_entropy={entropy:.3f}")
    assert results[0.95][1] <= results[0.0][1] + 1e-9, (
        "greedy ants should not keep higher trail entropy than exploratory ants"
    )


def test_ablation_bo_acquisition(run_once):
    """All three acquisitions must be functional and in the same league."""

    def run():
        return {
            acq: _mean_best(
                lambda env, seed, a=acq: BOAgent(
                    env.action_space, seed=seed, acquisition=a, n_init=10
                )
            )
            for acq in ("ei", "ucb", "pi")
        }

    results = run_once(run)
    print("\n=== ablation: BO acquisition function ===")
    for acq, score in results.items():
        print(f"  {acq}: mean best fitness {score:.4g}")
    top = max(results.values())
    assert all(score >= 0.25 * top for score in results.values()), results


def test_ablation_ga_mutation_rate(run_once):
    """Zero mutation collapses diversity; extreme mutation is random
    search. Both must run, and some intermediate rate must be at least
    as good as the degenerate extremes on average."""

    def run():
        return {
            rate: _mean_best(
                lambda env, seed, r=rate: GAAgent(
                    env.action_space, seed=seed, population_size=16,
                    mutation_rate=r,
                )
            )
            for rate in (0.0, 0.1, 1.0)
        }

    results = run_once(run)
    print("\n=== ablation: GA mutation rate ===")
    for rate, score in results.items():
        print(f"  mutation={rate:4.2f}  mean best {score:.4g}")
    assert results[0.1] >= min(results[0.0], results[1.0]) * 0.8, results


def test_ablation_rl_algo(run_once):
    """REINFORCE and PPO both learn (entropy drops), and both finish."""

    def run():
        out = {}
        for algo in ("reinforce", "ppo"):
            env = make_env()
            agent = RLAgent(env.action_space, seed=2, algo=algo, lr=0.05,
                            batch_size=16, entropy_coef=0.0)
            h0 = agent.policy_entropy()
            res = run_agent(agent, env, n_samples=N_SAMPLES, seed=2)
            out[algo] = (res.best_fitness, h0, agent.policy_entropy())
        return out

    results = run_once(run)
    print("\n=== ablation: RL algorithm ===")
    for algo, (fitness, h0, h1) in results.items():
        print(f"  {algo:10s} best={fitness:10.4g}  entropy {h0:.3f} -> {h1:.3f}")
    for algo, (fitness, h0, h1) in results.items():
        assert h1 < h0, f"{algo} policy did not sharpen"
