"""Parity of the RL and ACO agents' cached-CDF sampling with the code it
replaced (``agents_reference``): on any space, hyperparameters from
``HYPERPARAM_GRIDS`` and fitness stream — ties, constant batches (RL's
zero-advantage path), PPO clipping — both must make the same proposals
and leave the RNG, the policy weights, the Adam moments and the
pheromone trails equal bit for bit after every proposal and update.

The sampling helper itself is pinned to ``Generator.choice``: the same
index and the same generator state after every draw, and a rejection
wherever ``choice`` rejects. A numpy whose ``choice`` changes fails
here rather than in a golden digest."""

import warnings

import numpy as np
import pytest
from agents_reference import ReferenceACOAgent, ReferenceRLAgent
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from repro.agents import HYPERPARAM_GRIDS, ACOAgent, RLAgent
from repro.core.errors import AgentError
from repro.core.spaces import (
    Categorical,
    CompositeSpace,
    Discrete,
    choice_cdf,
    choice_index,
)
from repro.envs import FARSIGymEnv


def make_space(dims):
    params = []
    for i, (kind, k) in enumerate(dims):
        name = f"p{i}"
        if kind == "categorical":
            params.append(Categorical(name, tuple(f"v{j}" for j in range(k))))
        elif kind == "discrete":
            params.append(Discrete(name, 0, k - 1, 1))
        else:
            params.append(Discrete(name, 0.0, 0.25 * (k - 1), 0.25, integer=False))
    return CompositeSpace(params)


spaces = st.lists(
    st.tuples(
        st.sampled_from(["categorical", "discrete", "float"]),
        st.integers(1, 24),
    ),
    min_size=1,
    max_size=6,
).map(make_space)


def grid(agent, **overrides):
    axes = {k: st.sampled_from(v) for k, v in HYPERPARAM_GRIDS[agent].items()}
    axes.update(overrides)
    return st.fixed_dictionaries(axes)


#: ``ties`` scores from three levels; ``constant`` makes every RL batch
#: zero-advantage; ``blocks`` is constant over aligned blocks of 8 and
#: noisy between them; ``reward`` scores the design itself, so the policy
#: moves far enough for PPO to clip.
STREAMS = ("ties", "constant", "blocks", "noise", "reward")


def fitness(stream, step, indices, rng):
    if stream == "ties":
        return float(rng.integers(0, 3))
    if stream == "constant":
        return 2.5
    if stream == "blocks":
        block = step // 8
        return float(block) if block % 2 == 0 else float(rng.normal())
    if stream == "noise":
        return float(rng.normal() * 10.0 ** rng.integers(-3, 4))
    return float(indices.sum()) * 10.0


class ClipCountingReference(ReferenceRLAgent):
    """The reference agent, counting the samples PPO's clip zeroes."""

    clipped = 0

    def _update_once(self, adv, old_log_probs):
        if old_log_probs is not None:
            probs = self._dim_probs(self.net.forward()[0])
            for s, (indices, __) in enumerate(self._batch):
                new_lp = self._log_prob(probs, indices)
                ratio = float(np.exp(np.clip(new_lp - old_log_probs[s], -20, 20)))
                lo, hi = 1 - self.clip_eps, 1 + self.clip_eps
                self.clipped += ratio < lo if adv[s] < 0 else ratio > hi
        super()._update_once(adv, old_log_probs)


def assert_same_state(new, ref):
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state
    if isinstance(new, RLAgent):
        arrays = zip(
            new.net.params + new.opt.m + new.opt.v,
            ref.net.params + ref.opt.m + ref.opt.v,
        )
        assert new.opt.t == ref.opt.t
        assert new.updates == ref.updates
    else:
        arrays = zip(new._trails, ref._trails)
    for a, b in arrays:
        assert a.tobytes() == b.tobytes()


def drive(new, ref, stream, seed, n_steps):
    """Propose and observe in lockstep, comparing after every call."""
    scores = np.random.default_rng(seed)
    for step in range(n_steps):
        action = new.propose()
        assert action == ref.propose()
        indices = new.space.encode(action)
        assert indices.tobytes() == ref.space.encode(action).tobytes()
        assert_same_state(new, ref)
        f = fitness(stream, step, indices, scores)
        new.observe(action, f, {})
        ref.observe(action, f, {})
        assert_same_state(new, ref)


PPO_CLIPS = dict(
    algo="ppo", lr=0.1, entropy_coef=0.0, batch_size=8, hidden_size=16
)


@given(
    space=spaces,
    kwargs=grid("rl"),
    seed=st.integers(0, 2**32 - 1),
    stream=st.sampled_from(STREAMS),
    n_updates=st.integers(1, 3),
    extra=st.integers(0, 31),
)
@example(
    space=make_space([("categorical", 6), ("discrete", 9)]),
    kwargs=PPO_CLIPS, seed=0, stream="reward", n_updates=3, extra=0,
)
@settings(max_examples=100, deadline=None)
def test_prop_rl_matches_reference(space, kwargs, seed, stream, n_updates, extra):
    new = RLAgent(space, seed=seed, **kwargs)
    ref = ClipCountingReference(space, seed=seed, **kwargs)
    assert_same_state(new, ref)
    n_steps = n_updates * kwargs["batch_size"] + extra % kwargs["batch_size"]
    drive(new, ref, stream, seed, n_steps)
    if ref.clipped:
        event("ppo clipped")


def test_reward_stream_reaches_ppo_clipping():
    """The ``reward`` stream moves a PPO policy far enough to clip, so
    the property above covers the clipped branch."""
    space = make_space([("categorical", 6), ("discrete", 9)])
    new = RLAgent(space, seed=0, **PPO_CLIPS)
    ref = ClipCountingReference(space, seed=0, **PPO_CLIPS)
    drive(new, ref, "reward", 0, 3 * PPO_CLIPS["batch_size"])
    assert ref.clipped > 0


@given(
    space=spaces,
    kwargs=grid(
        "aco",
        greediness=st.sampled_from(HYPERPARAM_GRIDS["aco"]["greediness"] + [1.0]),
    ),
    seed=st.integers(0, 2**32 - 1),
    stream=st.sampled_from(STREAMS),
    n_cohorts=st.integers(1, 4),
    extra=st.integers(0, 15),
)
@settings(max_examples=100, deadline=None)
def test_prop_aco_matches_reference(space, kwargs, seed, stream, n_cohorts, extra):
    new = ACOAgent(space, seed=seed, **kwargs)
    ref = ReferenceACOAgent(space, seed=seed, **kwargs)
    n_steps = n_cohorts * kwargs["n_ants"] + extra % kwargs["n_ants"]
    drive(new, ref, stream, seed, n_steps)


# -- a degenerate policy raises AgentError at the draw choice failed on ------------


OVERFLOW = dict(seed=0, alpha=400.0, deposit=1e6)


def run_until_reference_fails(new, ref, rounds=200):
    """Drive both until the reference's ``choice`` raises; return the
    round it raised on, or None if it never did."""
    scores = np.random.default_rng(0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # trail ** alpha overflows
        for r in range(rounds):
            try:
                action = ref.propose()
            except ValueError:
                return r
            assert new.propose() == action
            f = float(scores.normal())
            new.observe(action, f, {})
            ref.observe(action, f, {})
    return None


def test_aco_overflow_raises_agent_error():
    space = FARSIGymEnv().action_space
    new = ACOAgent(space, greediness=0.0, **OVERFLOW)
    ref = ReferenceACOAgent(space, greediness=0.0, **OVERFLOW)
    assert run_until_reference_fails(new, ref) is not None
    with pytest.raises(AgentError, match=r"^aco: cannot sample parameter '\w+': .*NaN"):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            new.propose()
    # Raised at the same draw: both generators stopped at the same place.
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state


def test_aco_greedy_only_overflow_never_raises():
    space = FARSIGymEnv().action_space
    new = ACOAgent(space, greediness=1.0, **OVERFLOW)
    ref = ReferenceACOAgent(space, greediness=1.0, **OVERFLOW)
    assert run_until_reference_fails(new, ref) is None
    assert_same_state(new, ref)


@pytest.mark.parametrize("after_update", [False, True])
def test_rl_nan_weight_raises_agent_error(after_update):
    space = CompositeSpace(
        [Discrete("x", 0, 3, 1), Categorical("mode", ("a", "b", "c")),
         Discrete("y", 0, 7, 1)]
    )
    new = RLAgent(space, seed=4, batch_size=4)
    ref = ReferenceRLAgent(space, seed=4, batch_size=4)
    if after_update:
        drive(new, ref, "noise", 0, 4)
        assert new.updates == 1
    for agent in (new, ref):
        agent.net.b2[new._offsets[1] + 2] = np.nan  # a logit of "mode"
    with pytest.raises(ValueError, match="NaN"):
        ref.propose()
    with pytest.raises(AgentError, match=r"^rl: cannot sample parameter 'mode': .*NaN"):
        new.propose()
    assert new.rng.bit_generator.state == ref.rng.bit_generator.state


# -- the helper is pinned to Generator.choice ----------------------------------


@st.composite
def softmax_distributions(draw):
    """Softmax of 1–24 drawn logits. Spreads past ~745 underflow to
    exact zeros, and ``-inf`` logits are exact zeros outright."""
    logits = draw(
        st.lists(
            st.one_of(
                st.floats(-5.0, 5.0),
                st.floats(-1000.0, 1000.0),
                st.just(-np.inf),
            ),
            max_size=23,
        )
    )
    logits.insert(draw(st.integers(0, len(logits))), draw(st.floats(-1000.0, 1000.0)))
    z = np.array(logits)
    e = np.exp(z - z.max())
    return e / e.sum()


@given(p=softmax_distributions(), seed=st.integers(0, 2**64 - 1), n_draws=st.integers(1, 40))
@settings(max_examples=300, deadline=None)
def test_prop_choice_index_matches_generator_choice(p, seed, n_draws):
    numpy_rng, helper_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    cdf = choice_cdf(p)
    for __ in range(n_draws):
        assert choice_index(cdf, helper_rng) == numpy_rng.choice(len(p), p=p)
        assert helper_rng.bit_generator.state == numpy_rng.bit_generator.state


def test_draw_on_a_cdf_step_takes_the_next_index():
    """A uniform draw equal to a CDF value goes past it, as ``choice``'s
    ``searchsorted(side="right")`` does; random draws almost never land
    on a step, so the property above cannot tell the sides apart."""
    u = np.random.default_rng(0).random()
    p = np.array([u, 1.0 - u])
    cdf = choice_cdf(p)
    assert cdf[0] == u
    assert np.random.default_rng(0).choice(2, p=p) == 1
    assert choice_index(cdf, np.random.default_rng(0)) == 1


def numpy_rejects(p):
    try:
        np.random.default_rng(0).choice(len(p), p=p)
    except ValueError:
        return True
    return False


@given(
    p=st.one_of(
        st.lists(st.floats(width=64), min_size=1, max_size=24).map(np.array),
        # near the sum-to-1 tolerance (√eps ≈ 1.5e-8)
        st.tuples(softmax_distributions(), st.floats(-3e-8, 3e-8)).map(
            lambda pair: pair[0] * (1.0 + pair[1])
        ),
    )
)
@settings(max_examples=300, deadline=None)
def test_prop_choice_cdf_rejects_what_choice_rejects(p):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if numpy_rejects(p):
            with pytest.raises(ValueError):
                choice_cdf(p)
        else:
            cdf = choice_cdf(p)
            a, b = np.random.default_rng(1), np.random.default_rng(1)
            assert choice_index(cdf, b) == a.choice(len(p), p=p)
