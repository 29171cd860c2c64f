"""Unit + integration tests for the search agents."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.agents import (
    ACOAgent,
    AGENT_NAMES,
    BOAgent,
    GAAgent,
    GammaAgent,
    GAMMA_VARIANTS,
    HYPERPARAM_GRIDS,
    RandomWalkerAgent,
    RLAgent,
    iter_hyperparams,
    make_agent,
    make_gamma_variant,
    run_agent,
    sample_hyperparams,
)
from repro.core.env import ArchGymEnv
from repro.core.errors import AgentError
from repro.core.rewards import BudgetDistanceReward, TargetReward
from repro.core.spaces import Categorical, CompositeSpace, Discrete


def small_space() -> CompositeSpace:
    return CompositeSpace(
        [
            Discrete("x", low=0, high=15, step=1),
            Discrete("y", low=0, high=15, step=1),
            Categorical("mode", ("a", "b", "c")),
        ]
    )


class PeakEnv(ArchGymEnv):
    """Smooth unimodal landscape: cost minimized at (x=10, y=5, mode=b)."""

    env_id = "Peak-v0"

    def __init__(self, episode_length=10_000):
        super().__init__(
            action_space=small_space(),
            observation_metrics=["cost"],
            reward_spec=TargetReward("cost", target=1.0, tolerance=0.2),
            episode_length=episode_length,
        )

    def evaluate(self, action):
        penalty = {"a": 4.0, "b": 0.0, "c": 2.0}[action["mode"]]
        cost = 1.0 + (action["x"] - 10) ** 2 + (action["y"] - 5) ** 2 + penalty
        return {"cost": float(cost)}


class LowerBetterEnv(ArchGymEnv):
    """Budget-distance env (lower reward better) to test orientation."""

    env_id = "Lower-v0"

    def __init__(self):
        super().__init__(
            action_space=small_space(),
            observation_metrics=["perf"],
            reward_spec=BudgetDistanceReward(budgets={"perf": 10.0}),
            episode_length=10_000,
        )

    def evaluate(self, action):
        return {"perf": float(action["x"] + action["y"])}


def run_on_peak(agent_name, n=150, seed=0, **hp):
    env = PeakEnv()
    agent = make_agent(agent_name, env.action_space, seed=seed, **hp)
    return run_agent(agent, env, n_samples=n, seed=seed)


class TestDriver:
    def test_result_fields(self):
        res = run_on_peak("rw", n=50)
        assert res.agent == "rw"
        assert res.n_samples == 50
        assert len(res.reward_history) == 50
        assert len(res.best_fitness_history) == 50
        assert res.wall_time_s > 0

    def test_best_history_monotone(self):
        res = run_on_peak("ga", n=120)
        hist = res.best_fitness_history
        assert all(b >= a for a, b in zip(hist, hist[1:]))

    def test_fitness_at_budget(self):
        res = run_on_peak("rw", n=100)
        assert res.fitness_at(10) <= res.fitness_at(100)
        with pytest.raises(AgentError):
            res.fitness_at(0)

    def test_lower_better_env_orientation(self):
        """For lower-is-better rewards the driver must negate fitness, so
        the best design is the one with minimal reward."""
        env = LowerBetterEnv()
        agent = make_agent("rw", env.action_space, seed=0)
        res = run_agent(agent, env, n_samples=200, seed=0)
        # optimum: x + y <= 10 -> distance 0
        assert res.best_reward == 0.0
        assert res.best_metrics["perf"] <= 10.0

    def test_source_tag_propagates_to_dataset(self):
        from repro.core.dataset import ArchGymDataset

        env = PeakEnv()
        ds = ArchGymDataset()
        env.attach_dataset(ds)
        agent = make_agent("rw", env.action_space, seed=0)
        run_agent(agent, env, n_samples=10, seed=0)
        assert len(ds) == 10
        assert all(t.source.startswith("rw[") for t in ds)

    def test_invalid_sample_count(self):
        env = PeakEnv()
        agent = make_agent("rw", env.action_space)
        with pytest.raises(AgentError):
            run_agent(agent, env, n_samples=0)

    @pytest.mark.parametrize("n_samples", [2.5, True])
    def test_non_integer_sample_count(self, n_samples):
        env = PeakEnv()
        agent = make_agent("rw", env.action_space)
        with pytest.raises(AgentError, match="n_samples"):
            run_agent(agent, env, n_samples=n_samples)


class TestConvergence:
    """Every agent should comfortably beat random's *median* draw on a
    smooth landscape within a modest budget."""

    def test_all_agents_find_good_designs(self):
        for name in AGENT_NAMES:
            res = run_on_peak(name, n=200, seed=3)
            # optimum cost is 1.0 -> fitness large; demand cost <= 6
            assert res.best_metrics["cost"] <= 6.0, name

    def test_ga_beats_its_first_generation(self):
        res = run_on_peak("ga", n=300, seed=1, population_size=16)
        first_gen_best = max(res.reward_history[:16])
        assert res.best_reward >= first_gen_best

    def test_aco_trails_converge(self):
        env = PeakEnv()
        agent = ACOAgent(env.action_space, seed=0, n_ants=8, evaporation_rate=0.3)
        entropy_before = agent.trail_entropy()
        run_agent(agent, env, n_samples=400, seed=0)
        assert agent.trail_entropy() < entropy_before

    def test_rl_policy_entropy_drops(self):
        env = PeakEnv()
        agent = RLAgent(env.action_space, seed=0, lr=0.1, batch_size=16,
                        entropy_coef=0.0)
        h0 = agent.policy_entropy()
        run_agent(agent, env, n_samples=600, seed=0)
        assert agent.policy_entropy() < h0

    def test_bo_improves_over_warmup(self):
        res = run_on_peak("bo", n=120, seed=2, n_init=20)
        warmup_best = max(res.reward_history[:20])
        assert res.best_reward >= warmup_best


class TestAgentValidation:
    def test_unknown_agent(self):
        with pytest.raises(AgentError):
            make_agent("simulated_annealing", small_space())

    def test_rw_locality_bounds(self):
        with pytest.raises(AgentError):
            RandomWalkerAgent(small_space(), locality=1.5)

    def test_ga_validation(self):
        with pytest.raises(AgentError):
            GAAgent(small_space(), population_size=1)
        with pytest.raises(AgentError):
            GAAgent(small_space(), mutation_rate=2.0)

    def test_aco_validation(self):
        with pytest.raises(AgentError):
            ACOAgent(small_space(), evaporation_rate=0.0)
        with pytest.raises(AgentError):
            ACOAgent(small_space(), n_ants=0)

    def test_bo_validation(self):
        with pytest.raises(AgentError):
            BOAgent(small_space(), acquisition="magic")
        with pytest.raises(AgentError):
            BOAgent(small_space(), n_init=0)

    def test_rl_validation(self):
        with pytest.raises(AgentError):
            RLAgent(small_space(), algo="dqn")
        with pytest.raises(AgentError):
            RLAgent(small_space(), clip_eps=2.0)
        with pytest.raises(AgentError, match="ppo_epochs"):
            RLAgent(small_space(), algo="ppo", ppo_epochs=0)

    def test_empty_space_rejected(self):
        with pytest.raises(AgentError):
            RandomWalkerAgent(CompositeSpace([]))

    def test_observe_without_propose_ga(self):
        agent = GAAgent(small_space(), population_size=2)
        agent.propose(); agent.observe({}, 1.0, {})
        agent.propose(); agent.observe({}, 1.0, {})
        with pytest.raises(AgentError):
            agent.observe({}, 1.0, {})


class TestHyperparams:
    def test_tag_is_stable(self):
        a = GAAgent(small_space(), population_size=8, mutation_rate=0.1)
        b = GAAgent(small_space(), population_size=8, mutation_rate=0.1)
        assert a.hyperparam_tag() == b.hyperparam_tag()

    def test_sample_hyperparams_in_grid(self):
        rng = np.random.default_rng(0)
        for name in AGENT_NAMES:
            hp = sample_hyperparams(name, rng)
            for k, v in hp.items():
                assert v in HYPERPARAM_GRIDS[name][k]

    def test_sampled_hyperparams_construct_agents(self):
        rng = np.random.default_rng(1)
        for name in AGENT_NAMES:
            for _ in range(5):
                make_agent(name, small_space(), seed=0, **sample_hyperparams(name, rng))

    def test_iter_hyperparams_limit(self):
        combos = list(iter_hyperparams("ga", limit=7))
        assert len(combos) == 7

    def test_unknown_grid(self):
        with pytest.raises(AgentError):
            sample_hyperparams("nope", np.random.default_rng(0))


class TestGamma:
    def test_all_variants_construct_and_run(self):
        for variant in GAMMA_VARIANTS:
            env = PeakEnv()
            agent = make_gamma_variant(variant, env.action_space, seed=0,
                                       population_size=8)
            res = run_agent(agent, env, n_samples=60, seed=0)
            assert res.best_reward > 0
            assert agent.hyperparameters["variant"] == variant

    def test_unknown_variant(self):
        with pytest.raises(AgentError):
            make_gamma_variant("GA+XX", small_space())

    def test_growth_moves_one_gene_up(self):
        agent = GammaAgent(small_space(), seed=0)
        genome = np.array([0, 0, 0])
        grown = agent._grow(genome)
        assert grown.sum() == 1
        assert np.all(grown >= genome)

    def test_growth_respects_bounds(self):
        agent = GammaAgent(small_space(), seed=0)
        genome = np.array([15, 15, 2])  # all at max index
        grown = agent._grow(genome)
        assert np.array_equal(grown, genome)

    def test_reordering_changes_only_order_dim(self):
        space = CompositeSpace(
            [Discrete("t", 0, 7, 1), Categorical("LoopOrder", tuple("ABCDEF"))]
        )
        agent = GammaAgent(space, seed=0, order_dim="LoopOrder")
        genome = np.array([3, 2])
        out = agent._reorder(genome)
        assert out[0] == 3
        assert out[1] != 2

    def test_aging_replaces_old_elites(self):
        env = PeakEnv()
        agent = GammaAgent(env.action_space, seed=0, population_size=6,
                           use_aging=True, max_age=1, elite_frac=0.34)
        run_agent(agent, env, n_samples=60, seed=0)
        # ages never exceed max_age + 1 generation of grace
        assert agent._ages.max() <= agent.max_age + 1

    def test_order_dim_autodetect(self):
        space = CompositeSpace(
            [Discrete("t", 0, 7, 1), Categorical("LoopOrder", tuple("ABCD"))]
        )
        agent = GammaAgent(space, seed=0)
        assert agent._order_dim_index == 1


# -- property tests -----------------------------------------------------------------

@given(st.sampled_from(AGENT_NAMES), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_prop_proposals_always_valid(agent_name, seed):
    """Every proposal from every agent is a member of the action space."""
    space = small_space()
    agent = make_agent(agent_name, space, seed=seed)
    rng = np.random.default_rng(seed)
    for _ in range(25):
        action = agent.propose()
        assert space.contains(action)
        agent.observe(action, float(rng.normal()), {})


@given(st.integers(0, 500))
@settings(max_examples=15, deadline=None)
def test_prop_agents_deterministic_given_seed(seed):
    """Same seed + same env -> identical search trajectory."""
    for name in ("rw", "ga", "aco"):
        r1 = run_on_peak(name, n=40, seed=seed)
        r2 = run_on_peak(name, n=40, seed=seed)
        assert r1.reward_history == r2.reward_history
        assert r1.best_action == r2.best_action
