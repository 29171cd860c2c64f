"""Unit + property tests for the proxy cost-model stack."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.dataset import ArchGymDataset, Transition
from repro.core.errors import ProxyModelError
from repro.core.rewards import TargetReward
from repro.core.spaces import Categorical, CompositeSpace, Discrete
from repro.proxy import (
    DecisionTreeRegressor,
    ProxyCostModel,
    ProxyEnv,
    RandomForestRegressor,
    rmse,
    train_test_split,
)


def toy_data(n=400, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 4))
    y = 3.0 * X[:, 0] + np.sin(5 * X[:, 1]) + (X[:, 2] > 0.5) * 2.0
    if noise:
        y = y + rng.normal(0, noise, size=n)
    return X, y


class TestTree:
    def test_fits_piecewise_constant_exactly(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([1.0, 1.0, 5.0, 5.0])
        tree = DecisionTreeRegressor(max_depth=3, min_samples_leaf=1).fit(X, y)
        assert np.allclose(tree.predict(X), y)

    def test_depth_limit(self):
        X, y = toy_data()
        tree = DecisionTreeRegressor(max_depth=3).fit(X, y)
        assert tree.depth_ <= 3

    def test_min_samples_leaf(self):
        X, y = toy_data(n=50)
        tree = DecisionTreeRegressor(max_depth=20, min_samples_leaf=25).fit(X, y)
        # with 50 samples and leaves of >= 25, only one split is possible
        assert tree.n_nodes_ <= 3

    def test_deeper_fits_better(self):
        X, y = toy_data()
        shallow = DecisionTreeRegressor(max_depth=2).fit(X, y)
        deep = DecisionTreeRegressor(max_depth=10).fit(X, y)
        assert rmse(y, deep.predict(X)) <= rmse(y, shallow.predict(X))

    def test_constant_target(self):
        X = np.random.default_rng(0).random((20, 3))
        y = np.full(20, 7.0)
        tree = DecisionTreeRegressor().fit(X, y)
        assert np.allclose(tree.predict(X), 7.0)
        assert tree.n_nodes_ == 1

    def test_predict_before_fit(self):
        with pytest.raises(ProxyModelError):
            DecisionTreeRegressor().predict(np.zeros((1, 2)))

    def test_wrong_feature_count(self):
        X, y = toy_data()
        tree = DecisionTreeRegressor().fit(X, y)
        with pytest.raises(ProxyModelError):
            tree.predict(np.zeros((3, 7)))

    def test_validation(self):
        with pytest.raises(ProxyModelError):
            DecisionTreeRegressor(max_depth=0)
        with pytest.raises(ProxyModelError):
            DecisionTreeRegressor(min_samples_leaf=0)
        # 2.5 used to grow depth 3, and a fractional leaf size failed
        # inside fit with a bare TypeError
        for name in ("max_depth", "min_samples_leaf"):
            for bad in (2.5, 2.0, True, np.float64(3.0), "3", None):
                with pytest.raises(ProxyModelError, match=name):
                    DecisionTreeRegressor(**{name: bad})
            for good in (1, 3, np.int64(3), np.uint8(2)):
                DecisionTreeRegressor(**{name: good})
        for bad in ("log2", 0.5, 2.0, 0, -1, True, False):
            with pytest.raises(ProxyModelError):
                DecisionTreeRegressor(max_features=bad)
        for good in (None, "sqrt", 1, np.int64(3)):
            DecisionTreeRegressor(max_features=good)
        with pytest.raises(ProxyModelError):
            DecisionTreeRegressor().fit(np.zeros((0, 2)), np.zeros(0))

    def test_refit_grows_the_same_tree(self):
        rng = np.random.default_rng(1)
        X, y = rng.random((200, 6)), rng.random(200)
        tree = DecisionTreeRegressor(max_features="sqrt", seed=3)
        first = tree.fit(X, y).predict(X)
        assert np.array_equal(tree.fit(X, y).predict(X), first)

    def test_single_sample(self):
        tree = DecisionTreeRegressor().fit(np.array([[1.0, 2.0]]), np.array([3.0]))
        assert tree.predict(np.array([[9.0, 9.0]]))[0] == 3.0


class TestForest:
    def test_better_than_single_tree_on_noise(self):
        X, y = toy_data(n=500, noise=0.5)
        Xte, yte = toy_data(n=200, seed=9)
        tree = DecisionTreeRegressor(max_depth=12, seed=0).fit(X, y)
        forest = RandomForestRegressor(n_estimators=25, max_depth=12, seed=0).fit(X, y)
        assert rmse(yte, forest.predict(Xte)) <= rmse(yte, tree.predict(Xte))

    def test_deterministic_given_seed(self):
        X, y = toy_data()
        a = RandomForestRegressor(n_estimators=5, seed=3).fit(X, y).predict(X)
        b = RandomForestRegressor(n_estimators=5, seed=3).fit(X, y).predict(X)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ProxyModelError):
            RandomForestRegressor(n_estimators=0)
        with pytest.raises(ProxyModelError):
            RandomForestRegressor().predict(np.zeros((1, 2)))
        # n_estimators=2.5 used to fail in fit with a bare TypeError, and
        # True to grow one tree; the tree settings are refused up front
        for name, bad in (
            ("n_estimators", 2.5), ("n_estimators", True), ("n_estimators", "3"),
            ("max_depth", 2.5), ("max_depth", False),
            ("min_samples_leaf", 1.5), ("max_features", "log2"),
        ):
            with pytest.raises(ProxyModelError, match=name):
                RandomForestRegressor(**{name: bad})
        RandomForestRegressor(n_estimators=np.int64(2), max_depth=np.int32(4))

    def test_no_bootstrap_mode(self):
        X, y = toy_data(n=100)
        f = RandomForestRegressor(n_estimators=3, bootstrap=False, max_features=None, seed=0)
        f.fit(X, y)
        assert f.is_fitted


class TestSplitAndRmse:
    def test_rmse_zero_for_perfect(self):
        y = np.arange(5, dtype=float)
        assert rmse(y, y) == 0.0

    def test_rmse_shape_mismatch(self):
        with pytest.raises(ProxyModelError):
            rmse(np.zeros(3), np.zeros(4))

    def test_split_partition(self):
        X = np.arange(40, dtype=float).reshape(20, 2)
        Y = np.arange(20, dtype=float).reshape(20, 1)
        rng = np.random.default_rng(0)
        Xtr, Ytr, Xte, Yte = train_test_split(X, Y, 0.25, rng)
        assert len(Xtr) + len(Xte) == 20
        assert len(Xte) == 5
        combined = sorted(list(Ytr.ravel()) + list(Yte.ravel()))
        assert combined == list(range(20))

    def test_split_validation(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ProxyModelError):
            train_test_split(np.zeros((5, 1)), np.zeros((5, 1)), 1.5, rng)
        with pytest.raises(ProxyModelError):
            train_test_split(np.zeros((1, 1)), np.zeros((1, 1)), 0.5, rng)


def synthetic_dataset(n=300, seed=0):
    """Dataset over a small space with a learnable latency function."""
    space = CompositeSpace(
        [Discrete("x", 0, 15, 1), Categorical("mode", ("a", "b"))]
    )
    rng = np.random.default_rng(seed)
    ds = ArchGymDataset("Synthetic-v0")
    for i in range(n):
        action = space.sample(rng)
        latency = 10.0 + action["x"] * 2.0 + (5.0 if action["mode"] == "b" else 0.0)
        power = 1.0 + action["x"] * 0.05
        ds.append(
            Transition(action=action, metrics={"latency": latency, "power": power},
                       reward=1.0 / latency, source=f"agent{i % 3}")
        )
    return space, ds


class TestProxyCostModel:
    def test_fit_and_predict(self):
        space, ds = synthetic_dataset()
        proxy = ProxyCostModel(space, targets=["latency", "power"])
        proxy.fit(ds, seed=0, n_estimators=20, max_features=None)
        assert proxy.test_rmse["latency"] < 2.0
        assert proxy.test_rmse_relative["latency"] < 0.1
        pred = proxy.predict_metrics({"x": 4, "mode": "b"})
        assert pred["latency"] == pytest.approx(10 + 8 + 5, abs=3.0)

    def test_fit_with_search_not_worse_than_default_seeded(self):
        space, ds = synthetic_dataset()
        searched = ProxyCostModel(space, targets=["latency"]).fit_with_search(
            ds, n_trials=4, seed=1
        )
        assert searched.test_rmse["latency"] < 3.0

    def test_predict_before_fit(self):
        space, __ = synthetic_dataset(n=10)
        proxy = ProxyCostModel(space, targets=["latency"])
        with pytest.raises(ProxyModelError):
            proxy.predict_metrics({"x": 0, "mode": "a"})

    def test_predict_matrix_shape(self):
        space, ds = synthetic_dataset()
        proxy = ProxyCostModel(space, targets=["latency", "power"]).fit(
            ds, seed=0, n_estimators=5
        )
        X, __ = ds.to_matrices(space, ["latency", "power"])
        out = proxy.predict_matrix(X[:17])
        assert out.shape == (17, 2)


class TestProxyEnv:
    def test_wraps_and_steps(self):
        space, ds = synthetic_dataset()
        proxy = ProxyCostModel(space, targets=["latency", "power"]).fit(
            ds, seed=0, n_estimators=5
        )
        env = ProxyEnv(proxy, reward_spec=TargetReward("latency", target=15.0))
        env.reset(seed=0)
        obs, reward, __, __, info = env.step({"x": 2, "mode": "a"})
        assert obs.shape == (2,)
        assert reward > 0

    def test_unfitted_proxy_rejected(self):
        space, __ = synthetic_dataset(n=10)
        proxy = ProxyCostModel(space, targets=["latency"])
        with pytest.raises(ProxyModelError):
            ProxyEnv(proxy, reward_spec=TargetReward("latency", target=15.0))

    def test_from_env_copies_shape(self):
        from repro.envs.dram import DRAMGymEnv

        space, ds = synthetic_dataset()
        # proxy over the synthetic space, but reward copied from a real env
        proxy = ProxyCostModel(space, targets=["latency", "power"]).fit(
            ds, seed=0, n_estimators=5
        )
        real = DRAMGymEnv(workload="stream", n_requests=10)
        twin = ProxyEnv.from_env(real, proxy)
        assert twin.env_id == "Proxy(DRAMGym-v0)"
        assert twin.reward_spec is real.reward_spec


# -- property tests ------------------------------------------------------------------

@given(st.integers(0, 10_000), st.integers(10, 60), st.integers(1, 4))
@settings(max_examples=25, deadline=None)
def test_prop_tree_predictions_within_target_range(seed, n, depth):
    """A regression tree can never predict outside [min(y), max(y)], and
    its vectorized predict equals a walk of the node tree exactly, NaN
    rows included (a NaN compares false with ``<=``, so it goes right)."""
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    y = rng.normal(size=n)
    tree = DecisionTreeRegressor(max_depth=depth, seed=seed).fit(X, y)
    Xq = rng.random((50, 3))
    Xq[rng.random(Xq.shape) < 0.2] = np.nan
    pred = tree.predict(Xq)
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12

    def walk(row):
        node = tree._root
        while not node.is_leaf:
            node = node.left if row[node.feature] <= node.threshold else node.right
        return node.value

    assert pred.tolist() == [walk(row) for row in Xq]


@given(st.integers(0, 10_000))
@settings(max_examples=15, deadline=None)
def test_prop_forest_predictions_within_target_range(seed):
    rng = np.random.default_rng(seed)
    X = rng.random((80, 3))
    y = rng.normal(size=80)
    forest = RandomForestRegressor(n_estimators=5, seed=seed).fit(X, y)
    pred = forest.predict(rng.random((30, 3)))
    assert pred.min() >= y.min() - 1e-12
    assert pred.max() <= y.max() + 1e-12
