"""Parity of the proxy forest's batched CART grower with the per-feature
scan it replaced (``tree_reference.ReferenceTree``): every tree must
equal the reference node for node — feature, threshold and value in
pre-order, and the node count — and forests of either must predict the
same values, on any data: continuous and gridded features with many
ties, constant columns, NaN features and constant targets."""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_reference import ReferenceTree

import repro.proxy.forest as forest_module
from repro.envs.dram import DRAMGymEnv
from repro.proxy.forest import RandomForestRegressor
from repro.proxy.tree import DecisionTreeRegressor


def preorder(tree):
    nodes = []

    def visit(node):
        nodes.append((node.feature, node.threshold, node.value))
        if not node.is_leaf:
            visit(node.left)
            visit(node.right)

    visit(tree._root)
    return nodes


def assert_same_trees(new, ref):
    assert preorder(new) == preorder(ref)
    assert new.n_nodes_ == ref.n_nodes_


def reference_forest(X, y, **kwargs):
    """The same forest, its trees grown by the per-feature scan."""
    with mock.patch.object(forest_module, "DecisionTreeRegressor", ReferenceTree):
        return RandomForestRegressor(**kwargs).fit(X, y)


def make_data(seed, n, d, kind, constant_column, nan_share, constant_y):
    """``kind``: ``continuous`` values, a ``grid`` of 2–5 levels per
    column (many ties), or a ``mix`` of the two by column."""
    rng = np.random.default_rng(seed)
    levels = rng.integers(2, 6, size=d)
    grid = rng.integers(0, levels, size=(n, d)) / (levels - 1)
    X = rng.random((n, d))
    if kind == "grid":
        X = grid
    elif kind == "mix":
        X[:, ::2] = grid[:, ::2]
    if constant_column:
        X[:, rng.integers(d)] = 0.5
    X[rng.random((n, d)) < nan_share] = np.nan
    y = np.full(n, 3.25) if constant_y else rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    return X, y


datasets = st.builds(
    make_data,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    d=st.integers(1, 12),
    kind=st.sampled_from(["continuous", "grid", "mix"]),
    constant_column=st.booleans(),
    nan_share=st.sampled_from([0.0, 0.05, 0.4]),
    constant_y=st.booleans(),
)
max_features = st.one_of(st.none(), st.just("sqrt"), st.integers(1, 14))
tree_kwargs = st.fixed_dictionaries(
    {
        "max_depth": st.integers(1, 16),
        "min_samples_leaf": st.integers(1, 4),
        "max_features": max_features,
        "seed": st.integers(0, 2**31 - 1),
    }
)


@given(data=datasets, kwargs=tree_kwargs)
@settings(max_examples=300, deadline=None)
def test_prop_tree_matches_reference(data, kwargs):
    X, y = data
    assert_same_trees(
        DecisionTreeRegressor(**kwargs).fit(X, y),
        ReferenceTree(**kwargs).fit(X, y),
    )


@given(data=datasets, kwargs=tree_kwargs, n_estimators=st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_prop_forest_predictions_match_reference(data, kwargs, n_estimators):
    X, y = data
    kwargs["n_estimators"] = n_estimators
    forest = RandomForestRegressor(**kwargs).fit(X, y)
    ref = reference_forest(X, y, **kwargs)
    for new_tree, ref_tree in zip(forest._trees, ref._trees):
        assert_same_trees(new_tree, ref_tree)
    queries = np.vstack([X, np.random.default_rng(0).random((50, X.shape[1]))])
    assert np.array_equal(forest.predict(queries), ref.predict(queries))


def test_dram_corpus_forest_matches_reference():
    """One forest at the online proxy's setting (2,048 points, 30 trees,
    depth 12, leaf 2, ``"sqrt"``) on DRAMGym unit vectors and latencies."""
    env = DRAMGymEnv(n_requests=64)
    rng = np.random.default_rng(7)
    actions = [env.action_space.sample(rng) for _ in range(2048)]
    X = np.stack([env.action_space.to_unit_vector(a) for a in actions])
    y = np.array([env.evaluate(a)["latency"] for a in actions])
    kwargs = dict(n_estimators=30, max_depth=12, min_samples_leaf=2, max_features="sqrt", seed=5)
    forest = RandomForestRegressor(**kwargs).fit(X, y)
    ref = reference_forest(X, y, **kwargs)
    for new_tree, ref_tree in zip(forest._trees, ref._trees):
        assert_same_trees(new_tree, ref_tree)
    assert np.array_equal(forest.predict(X), ref.predict(X))
