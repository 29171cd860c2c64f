"""Random forest regressor (bagged CART trees) — the §7.2 proxy model."""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.errors import ProxyModelError
from repro.proxy.tree import DecisionTreeRegressor, _descend, _is_count

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees with feature subsampling.

    The paper trains one random forest per predicted metric (latency,
    power, energy) on ArchGym datasets; this implementation mirrors the
    scikit-learn estimator the authors used.

    ``fit`` joins the trees' flat node arrays into one table, so
    ``predict`` walks every tree in one descent instead of one per tree.
    """

    def __init__(
        self,
        n_estimators: int = 30,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        max_features: Optional[object] = "sqrt",
        bootstrap: bool = True,
        seed: int = 0,
    ) -> None:
        if not _is_count(n_estimators):
            raise ProxyModelError(
                f"n_estimators must be an int >= 1, got {n_estimators!r}"
            )
        # the trees' settings are refused here, not at the first fit
        DecisionTreeRegressor(
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_features=max_features,
        )
        self.n_estimators = n_estimators
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.bootstrap = bootstrap
        self.seed = seed
        self._trees: List[DecisionTreeRegressor] = []
        # (n_features, roots, depth, feature, threshold, children, value),
        # set only by a fit that grew every tree
        self._table: Optional[Tuple] = None

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(X) != len(y) or len(y) == 0:
            raise ProxyModelError(f"bad training shapes X{X.shape} y{y.shape}")
        rng = np.random.default_rng(self.seed)
        self._table = None
        self._trees = []
        n = len(y)
        for t in range(self.n_estimators):
            tree = DecisionTreeRegressor(
                max_depth=self.max_depth,
                min_samples_leaf=self.min_samples_leaf,
                max_features=self.max_features,
                seed=int(rng.integers(2**31 - 1)),
            )
            if self.bootstrap:
                idx = rng.integers(n, size=n)
                tree.fit(X[idx], y[idx])
            else:
                tree.fit(X, y)
            self._trees.append(tree)
        # one node table: the trees' arrays end to end, each tree's
        # children shifted by where its nodes start. The walk takes the
        # deepest tree's depth; leaves absorb, so shallower trees stay put.
        trees = self._trees
        sizes = [len(tree._value) for tree in trees]
        roots = np.cumsum([0] + sizes[:-1])
        feature = np.concatenate([tree._feature for tree in trees])
        threshold = np.concatenate([tree._threshold for tree in trees])
        value = np.concatenate([tree._value for tree in trees])
        self._table = (
            trees[0].n_features_,
            roots,
            max(tree._depth for tree in trees),
            feature,
            threshold,
            np.concatenate([tree._children + root for tree, root in zip(trees, roots)]),
            value,
        )
        # each tree keeps views of its nodes in the table instead of its
        # own copies; its children stay its own, unshifted
        for tree, start, size in zip(trees, roots, sizes):
            tree._feature = feature[start:start + size]
            tree._threshold = threshold[start:start + size]
            tree._value = value[start:start + size]
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        table = self._table
        if table is None:
            raise ProxyModelError("forest is not fitted")
        n_features, *nodes = table
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != n_features:
            raise ProxyModelError(
                f"expected X with {n_features} features, got {X.shape}"
            )
        # the same (trees, rows) array that stacking each tree's
        # predictions builds, so the mean has the same bits
        return _descend(*nodes, X).mean(axis=0)

    @property
    def is_fitted(self) -> bool:
        return self._table is not None
