"""Unit and property tests for repro.core.spaces."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core.errors import SpaceError
from repro.core.spaces import Categorical, CompositeSpace, Discrete


def make_space() -> CompositeSpace:
    return CompositeSpace(
        [
            Categorical("policy", ("Open", "Closed", "OpenAdaptive")),
            Discrete("buffer", low=1, high=8, step=1),
            Discrete("banks", low=2, high=16, step=2),
            Discrete("freq", low=0.5, high=2.0, step=0.1, integer=False),
        ]
    )


class TestCategorical:
    def test_roundtrip_index(self):
        p = Categorical("x", ("a", "b", "c"))
        for i, v in enumerate(("a", "b", "c")):
            assert p.to_index(v) == i
            assert p.from_index(i) == v

    def test_contains(self):
        p = Categorical("x", ("a", "b"))
        assert p.contains("a")
        assert not p.contains("z")

    def test_bad_value_raises(self):
        p = Categorical("x", ("a",))
        with pytest.raises(SpaceError):
            p.to_index("nope")

    def test_bad_index_raises(self):
        p = Categorical("x", ("a", "b"))
        with pytest.raises(SpaceError):
            p.from_index(2)

    def test_empty_choices_rejected(self):
        with pytest.raises(SpaceError):
            Categorical("x", ())

    def test_duplicate_choices_rejected(self):
        with pytest.raises(SpaceError):
            Categorical("x", ("a", "a"))

    def test_unit_roundtrip(self):
        p = Categorical("x", ("a", "b", "c", "d"))
        for v in p.values():
            assert p.from_unit(p.to_unit(v)) == v


class TestDiscrete:
    def test_cardinality(self):
        assert Discrete("x", 1, 8, 1).cardinality == 8
        assert Discrete("x", 0, 10, 2).cardinality == 6
        assert Discrete("x", 5, 5, 1).cardinality == 1

    def test_values_on_grid(self):
        p = Discrete("x", 2, 10, 2)
        assert list(p.values()) == [2, 4, 6, 8, 10]

    def test_contains_grid_only(self):
        p = Discrete("x", 0, 10, 5)
        assert p.contains(0) and p.contains(5) and p.contains(10)
        assert not p.contains(3)
        assert not p.contains(11)
        assert not p.contains("hello")

    def test_roundtrip_index(self):
        p = Discrete("x", 3, 30, 3)
        for i in range(p.cardinality):
            assert p.to_index(p.from_index(i)) == i

    def test_pow2(self):
        p = Discrete.pow2("x", 1, 64)
        assert tuple(p.values()) == (1, 2, 4, 8, 16, 32, 64)

    def test_pow2_invalid(self):
        with pytest.raises(SpaceError):
            Discrete.pow2("x", 0, 8)

    def test_invalid_step(self):
        with pytest.raises(SpaceError):
            Discrete("x", 0, 10, 0)

    def test_high_below_low(self):
        with pytest.raises(SpaceError):
            Discrete("x", 10, 0, 1)

    def test_float_grid(self):
        p = Discrete("x", 0.5, 2.0, 0.5, integer=False)
        assert list(p.values()) == [0.5, 1.0, 1.5, 2.0]


class TestCompositeSpace:
    def test_dimension_and_cardinality(self):
        space = make_space()
        assert space.dimension == 4
        assert space.cardinality == 3 * 8 * 8 * 16

    def test_duplicate_names_rejected(self):
        with pytest.raises(SpaceError):
            CompositeSpace([Categorical("a", ("x",)), Categorical("a", ("y",))])

    def test_sample_is_valid(self):
        space = make_space()
        rng = np.random.default_rng(1)
        for _ in range(100):
            action = space.sample(rng)
            assert space.contains(action)

    def test_encode_decode_roundtrip(self):
        space = make_space()
        rng = np.random.default_rng(2)
        for _ in range(100):
            action = space.sample(rng)
            assert space.decode(space.encode(action)) == action

    def test_validate_missing_key(self):
        space = make_space()
        action = space.sample(np.random.default_rng(0))
        del action["policy"]
        with pytest.raises(SpaceError, match="missing"):
            space.validate(action)

    def test_validate_extra_key(self):
        space = make_space()
        action = space.sample(np.random.default_rng(0))
        action["bogus"] = 1
        with pytest.raises(SpaceError, match="unknown"):
            space.validate(action)

    def test_validate_bad_value(self):
        space = make_space()
        action = space.sample(np.random.default_rng(0))
        action["buffer"] = 99
        with pytest.raises(SpaceError):
            space.validate(action)

    def test_getitem(self):
        space = make_space()
        assert space["policy"].name == "policy"
        with pytest.raises(SpaceError):
            space["nope"]

    def test_neighbors_differ_in_one_param(self):
        space = make_space()
        rng = np.random.default_rng(3)
        action = space.sample(rng)
        for neighbor in space.neighbors(action, rng, n=20):
            diffs = [
                k for k in space.names
                if space[k].to_index(neighbor[k]) != space[k].to_index(action[k])
            ]
            assert len(diffs) == 1

    def test_decode_wrong_length(self):
        space = make_space()
        with pytest.raises(SpaceError):
            space.decode([0, 0])

    def test_unit_vector_wrong_length(self):
        space = make_space()
        with pytest.raises(SpaceError):
            space.from_unit_vector([0.5])


# -- property-based tests -------------------------------------------------------

index_vectors = st.tuples(
    st.integers(0, 2), st.integers(0, 7), st.integers(0, 7), st.integers(0, 15)
)


@given(index_vectors)
@settings(max_examples=200)
def test_prop_decode_encode_roundtrip(indices):
    """decode(encode(.)) is the identity on index vectors."""
    space = make_space()
    action = space.decode(list(indices))
    assert tuple(space.encode(action)) == indices


@given(index_vectors)
@settings(max_examples=200)
def test_prop_unit_vector_roundtrip(indices):
    """from_unit_vector(to_unit_vector(.)) preserves the design point."""
    space = make_space()
    action = space.decode(list(indices))
    assert space.from_unit_vector(space.to_unit_vector(action)) == action


@given(st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
@settings(max_examples=200)
def test_prop_from_unit_vector_always_valid(vec):
    """Any point of the unit hypercube maps to a valid action."""
    space = make_space()
    action = space.from_unit_vector(vec)
    assert space.contains(action)


@given(st.integers(1, 20), st.integers(1, 100), st.integers(1, 7))
@settings(max_examples=200)
def test_prop_discrete_cardinality_matches_values(low, span, step):
    p = Discrete("x", low, low + span, step)
    values = list(p.values())
    assert len(values) == p.cardinality
    assert all(p.contains(v) for v in values)
    assert values[0] == low
    assert values[-1] <= low + span


@functools.lru_cache(maxsize=None)
def builtin_space(env_id: str) -> CompositeSpace:
    env = repro.make(env_id)
    try:
        return env.action_space
    finally:
        env.close()


@given(
    st.sampled_from(repro.registered_ids()),
    st.integers(0, 2**63 - 1),
    st.integers(0, 64),
)
@settings(max_examples=200, deadline=None)
def test_prop_builtin_spaces_keep_the_codec_contract(env_id, seed, n):
    """On every registered env's action space, sampled actions survive
    both codecs exactly (``repr`` also compares value types and key
    order), and ``sample_batch`` draws what ``n`` calls of ``sample``
    draw from an equal generator, leaving it in the same state."""
    space = builtin_space(env_id)
    batch_rng = np.random.default_rng(seed)
    loop_rng = np.random.default_rng(seed)
    actions = space.sample_batch(batch_rng, n)
    assert repr(actions) == repr([space.sample(loop_rng) for _ in range(n)])
    assert batch_rng.bit_generator.state == loop_rng.bit_generator.state
    for action in actions:
        assert repr(space.decode(space.encode(action))) == repr(action)
        unit = space.from_unit_vector(space.to_unit_vector(action))
        assert repr(unit) == repr(action)
