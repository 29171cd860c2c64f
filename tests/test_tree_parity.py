"""Parity of the proxy forest's CART grower with the per-feature scan it
replaced (``tree_reference.ReferenceTree``): every tree must equal the
reference node for node — feature, threshold and value in pre-order,
compared by ``float.hex`` so a sign of zero or a NaN counts, and the
node count — on any data: continuous and gridded features with
many ties, constant columns, NaN features, constant targets, targets
with few levels (tied gains), and targets with NaN, ±inf, -0.0 and
magnitudes up to 1e300, whose squares overflow to inf so gains turn NaN
or inf. Predictions are held to the per-tree descent the forest's one
joined walk replaced (``tree_reference.reference_predict``): each tree's
own, and the forest's mean over the reference-grown trees, by
``float.hex``.

``repro.proxy.tree`` scores a node of more than ``_SMALL_NODE`` rows
with numpy and a smaller one in plain Python; the tree property must
reach split nodes on both sides of that bound. The scalar scan's node
sum copies numpy's pairwise order, so ``_node_sum`` is pinned to
``np.sum``; if that pin fails, numpy's sum moved."""

from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tree_reference import ReferenceTree, reference_forest_predict, reference_predict

import repro.proxy.forest as forest_module
from repro.envs.dram import DRAMGymEnv
from repro.proxy.forest import RandomForestRegressor
from repro.proxy.tree import _SMALL_NODE, DecisionTreeRegressor, _node_sum


def preorder(tree):
    nodes = []

    def visit(node):
        nodes.append((node.feature, node.threshold.hex(), node.value.hex()))
        if not node.is_leaf:
            visit(node.left)
            visit(node.right)

    visit(tree._root)
    return nodes


def hexes(values):
    """``float.hex`` of each value: tells -0.0 from 0.0 and NaN from any
    number, but not one NaN from another, whose sign and payload numpy
    does not keep stable (a sum's vectorized order can pick either)."""
    return [value.hex() for value in values.tolist()]


def assert_same_trees(new, ref):
    assert preorder(new) == preorder(ref)
    assert new.n_nodes_ == ref.n_nodes_


def split_sizes(tree, X):
    """The row count of each split node, found by routing the training
    rows through the tree."""
    sizes = []

    def visit(node, rows):
        if not node.is_leaf:
            sizes.append(len(rows))
            go_left = X[rows, node.feature] <= node.threshold
            visit(node.left, rows[go_left])
            visit(node.right, rows[~go_left])

    visit(tree._root, np.arange(len(X)))
    return sizes


def reference_forest(X, y, **kwargs):
    """The same forest, its trees grown by the per-feature scan."""
    with mock.patch.object(forest_module, "DecisionTreeRegressor", ReferenceTree):
        return RandomForestRegressor(**kwargs).fit(X, y)


def make_data(seed, n, d, kind, constant_column, nan_share, y_kind, y_special):
    """``kind``: ``continuous`` values, a ``grid`` of 2–5 levels per
    column (many ties), or a ``mix`` of the two by column. ``y_kind``:
    ``normal`` targets at one scale, ``constant``, a few integer
    ``levels``, signed ``zeros``, or ``wide`` magnitudes from 1e-3 to
    1e300. A ``y_special`` share of the targets is then NaN, ±inf or
    -0.0."""
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
    if y_kind == "constant":
        y = np.full(n, 3.25)
    elif y_kind == "levels":
        y = rng.integers(0, 3, size=n).astype(np.float64)
    elif y_kind == "zeros":
        y = np.where(rng.random(n) < 0.5, -0.0, 0.0)
    elif y_kind == "wide":
        y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 301, size=n)
    else:
        y = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
    special = rng.random(n) < y_special
    y[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0], size=int(special.sum()))
    return X, y


datasets = st.builds(
    make_data,
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 400),
    d=st.integers(1, 12),
    kind=st.sampled_from(["continuous", "grid", "mix"]),
    constant_column=st.booleans(),
    nan_share=st.sampled_from([0.0, 0.05, 0.4]),
    y_kind=st.sampled_from(["normal", "constant", "levels", "zeros", "wide"]),
    y_special=st.sampled_from([0.0, 0.0, 0.02, 0.2]),
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

#: Which scans split a node in the tree property's run.
REACHED = Counter()


@given(data=datasets, kwargs=tree_kwargs)
@settings(max_examples=300, deadline=None)
def check_tree_matches_reference(data, kwargs):
    X, y = data
    new = DecisionTreeRegressor(**kwargs).fit(X, y)
    assert_same_trees(new, ReferenceTree(**kwargs).fit(X, y))
    assert hexes(new.predict(X)) == hexes(reference_predict(new, X))
    for size in split_sizes(new, X):
        REACHED["numpy scan" if size > _SMALL_NODE else "scalar scan"] += 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_prop_tree_matches_reference():
    REACHED.clear()
    check_tree_matches_reference()
    assert set(REACHED) == {"numpy scan", "scalar scan"}, REACHED


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
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
    for tree in forest._trees:
        assert hexes(tree.predict(queries)) == hexes(reference_predict(tree, queries))
    assert hexes(forest.predict(queries)) == hexes(
        reference_forest_predict(ref._trees, queries)
    )


def spread_values(seed, n, special_share):
    """``n`` normal values over eleven orders of magnitude, so the
    order of the additions shows in the sum's last bits, a share of
    them replaced by -0.0, ±inf or NaN."""
    rng = np.random.default_rng(seed)
    values = rng.normal(size=n) * 10.0 ** rng.integers(-5, 6, size=n)
    special = rng.random(n) < special_share
    values[special] = rng.choice([-0.0, np.inf, -np.inf, np.nan], size=int(special.sum()))
    return values.tolist()


node_values = st.one_of(
    st.builds(
        spread_values,
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, _SMALL_NODE),
        special_share=st.sampled_from([0.0, 0.0, 0.05, 0.3]),
    ),
    st.lists(
        st.one_of(st.floats(), st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan])),
        min_size=1,
        max_size=_SMALL_NODE,
    ),
    st.integers(1, _SMALL_NODE).map(lambda n: [-0.0] * n),
)


@given(values=node_values)
@settings(max_examples=500, deadline=None)
def test_prop_node_sum_is_numpy_sum(values):
    with np.errstate(over="ignore", invalid="ignore"):
        expected = np.array(values).sum()
    assert _node_sum(values).hex() == expected.hex()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_nan_gain_drops_its_candidate():
    """The squares of these targets sum to a finite ``total_sq`` in row
    order, but their running sum in ``x`` order overflows just before
    the last row, so the split there scores NaN while the others score
    finite gains. numpy's row max is then NaN, which never beats the
    best gain: the candidate is dropped and the node stays a leaf."""
    X = np.array([[2.0], [1.0], [3.0], [4.0], [0.0]])
    y = np.array([
        6.982646779520315e153, -8.37411142652664e153, -6.832026420147046e153,
        -3.833620989288389e139, 3.769566321105765e153,
    ])
    kwargs = dict(max_depth=1, min_samples_leaf=1)
    new = DecisionTreeRegressor(**kwargs).fit(X, y)
    assert_same_trees(new, ReferenceTree(**kwargs).fit(X, y))
    assert new.n_nodes_ == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize(
    "low, high",
    [
        (1 + 2**-52, 1 + 2**-51),  # adjacent: their mean rounds up to high
        (1e308, 1.5e308),  # their sum overflows: the threshold is inf
    ],
)
def test_threshold_on_the_next_value_leaves_an_empty_child(low, high):
    """Both rows go left of a threshold that lands on ``high``, so the
    right child is empty and the reference gives it a NaN value."""
    X = np.array([[low], [high]])
    y = np.array([0.0, 1.0])
    kwargs = dict(max_depth=2, min_samples_leaf=1)
    new = DecisionTreeRegressor(**kwargs).fit(X, y)
    assert_same_trees(new, ReferenceTree(**kwargs).fit(X, y))
    assert new.n_nodes_ == 5


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
    assert hexes(forest.predict(X)) == hexes(reference_forest_predict(ref._trees, X))
