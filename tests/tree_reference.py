"""The proxy forest's original CART grower, kept as the parity reference.

``repro.proxy.tree`` grows a node with one batched numpy scan over all
of its candidate features, or with a scalar scan when the node is
small. This module holds the per-feature scan both replaced, so
``tests/test_tree_parity.py`` can require that all of them grow the
same tree node for node. ``_best_split``, ``_grow`` and
``_feature_subset`` are copied unchanged; ``ReferenceTree`` is a
``DecisionTreeRegressor`` whose ``fit`` grows with them.

``reference_predict`` and ``reference_forest_predict`` keep the
prediction the forest's one joined walk replaced: each tree descends on
its own, gathering ``X[rows, feature]``, and the forest takes the mean of
the stacked per-tree predictions.
"""

from __future__ import annotations

import numpy as np

from repro.proxy.tree import DecisionTreeRegressor, _Node


def _best_split(
    X: np.ndarray, y: np.ndarray, features: np.ndarray, min_leaf: int
):
    """Find the (feature, threshold) minimizing total child SSE.

    For each feature the samples are sorted once; prefix sums of y and
    y^2 yield every split's SSE in O(n).
    """
    n = len(y)
    best_gain = 0.0
    best_feature = -1
    best_threshold = 0.0

    total_sum = y.sum()
    total_sq = (y * y).sum()
    parent_sse = total_sq - total_sum * total_sum / n

    for j in features:
        order = np.argsort(X[:, j], kind="stable")
        xs = X[order, j]
        ys = y[order]
        csum = np.cumsum(ys)
        csq = np.cumsum(ys * ys)

        # split after position k (left = first k+1 samples)
        k = np.arange(min_leaf - 1, n - min_leaf)
        if len(k) == 0:
            continue
        left_n = k + 1.0
        right_n = n - left_n
        left_sse = csq[k] - csum[k] ** 2 / left_n
        right_sum = total_sum - csum[k]
        right_sse = (total_sq - csq[k]) - right_sum**2 / right_n
        gain = parent_sse - (left_sse + right_sse)

        # forbid splits between equal feature values
        valid = xs[k] < xs[k + 1]
        gain = np.where(valid, gain, -np.inf)
        idx = int(np.argmax(gain))
        if gain[idx] > best_gain + 1e-12:
            best_gain = float(gain[idx])
            best_feature = int(j)
            best_threshold = float((xs[k[idx]] + xs[k[idx] + 1]) / 2.0)

    return best_feature, best_threshold, best_gain


class ReferenceTree(DecisionTreeRegressor):
    """A ``DecisionTreeRegressor`` grown by the per-feature scan.

    It draws its feature subsets with its own copy of the original
    ``_feature_subset``, so a change to the production draw shows up as
    a parity failure instead of reaching both trees.
    """

    def _feature_subset(self, d: int) -> np.ndarray:
        if self.max_features is None:
            return np.arange(d)
        if self.max_features == "sqrt":
            m = max(1, int(np.sqrt(d)))
        else:
            m = max(1, min(int(self.max_features), d))
        return self.rng.choice(d, size=m, replace=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "ReferenceTree":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        self.n_features_ = X.shape[1]
        self.n_nodes_ = 0
        self.rng = np.random.default_rng(self.seed)
        self._root = self._grow(X, y, depth=0)
        self._flatten()
        return self

    def _grow(self, X: np.ndarray, y: np.ndarray, depth: int) -> _Node:
        node = _Node(value=float(y.mean()))
        self.n_nodes_ += 1
        if (
            depth >= self.max_depth
            or len(y) < 2 * self.min_samples_leaf
            or np.ptp(y) < 1e-15
        ):
            return node
        feature, threshold, gain = _best_split(
            X, y, self._feature_subset(X.shape[1]), self.min_samples_leaf
        )
        if feature < 0 or gain <= 0.0:
            return node
        mask = X[:, feature] <= threshold
        node.feature = feature
        node.threshold = threshold
        node.left = self._grow(X[mask], y[mask], depth + 1)
        node.right = self._grow(X[~mask], y[~mask], depth + 1)
        return node


def reference_predict(tree: DecisionTreeRegressor, X: np.ndarray) -> np.ndarray:
    """One fitted tree's original descent over its flat arrays: every row
    walks in lockstep for exactly the tree's depth (a row that reaches
    its leaf stays there)."""
    X = np.asarray(X, dtype=np.float64)
    rows = np.arange(len(X))
    idx = np.zeros(len(X), dtype=np.int64)
    for _ in range(tree._depth):
        go_left = X[rows, tree._feature[idx]] <= tree._threshold[idx]
        idx = tree._children[2 * idx + go_left]
    return tree._value[idx]


def reference_forest_predict(trees, X: np.ndarray) -> np.ndarray:
    """The original forest prediction: the mean of the stacked per-tree
    predictions."""
    return np.stack([reference_predict(tree, X) for tree in trees]).mean(axis=0)
