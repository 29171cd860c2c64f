"""CART regression tree (numpy implementation).

scikit-learn is unavailable in this environment, so the random-forest
proxy models of §7.2 are built on this from-scratch tree: greedy
variance-reduction splits found with vectorized prefix-sum scans, with
the usual depth / leaf-size / feature-subsampling controls the forest
needs.
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.errors import ProxyModelError

__all__ = ["DecisionTreeRegressor"]


class _Node:
    __slots__ = ("feature", "threshold", "left", "right", "value")

    def __init__(self, value: float):
        self.feature: int = -1
        self.threshold: float = 0.0
        self.left: Optional["_Node"] = None
        self.right: Optional["_Node"] = None
        self.value: float = value

    @property
    def is_leaf(self) -> bool:
        return self.left is None


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


class DecisionTreeRegressor:
    """Greedy CART regressor.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0).
    min_samples_leaf:
        Minimum samples in each child of a split.
    max_features:
        Features considered per split: ``None`` (all), ``"sqrt"``, or an
        integer count. Random subsets make forest trees decorrelated.
    """

    def __init__(
        self,
        max_depth: int = 12,
        min_samples_leaf: int = 2,
        max_features: Optional[object] = None,
        seed: int = 0,
    ) -> None:
        if max_depth < 1:
            raise ProxyModelError("max_depth must be >= 1")
        if min_samples_leaf < 1:
            raise ProxyModelError("min_samples_leaf must be >= 1")
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.rng = np.random.default_rng(seed)
        self._root: Optional[_Node] = None
        self.n_features_: int = 0
        self.n_nodes_: int = 0

    def _feature_subset(self, d: int) -> np.ndarray:
        if self.max_features is None:
            return np.arange(d)
        if self.max_features == "sqrt":
            m = max(1, int(np.sqrt(d)))
        else:
            m = max(1, min(int(self.max_features), d))
        return self.rng.choice(d, size=m, replace=False)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "DecisionTreeRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or len(X) != len(y):
            raise ProxyModelError(f"bad training shapes X{X.shape} y{y.shape}")
        if len(y) == 0:
            raise ProxyModelError("cannot fit on zero samples")
        self.n_features_ = X.shape[1]
        self.n_nodes_ = 0
        self._root = self._grow(X, y, depth=0)
        self._flatten()
        return self

    def _flatten(self) -> None:
        """Pack the node tree into flat arrays for vectorized prediction.

        Leaves are absorbing: a leaf tests feature 0 against +inf and is
        both of its own children, so a descent of exactly the tree's depth
        leaves every row at its leaf. Node ``k``'s right child is
        ``_children[2k]`` and its left child ``_children[2k + 1]``.
        """
        feature: List[int] = []
        threshold: List[float] = []
        children: List[int] = []
        value: List[float] = []

        def visit(node: _Node) -> int:
            idx = len(value)
            value.append(node.value)
            children.extend((idx, idx))
            if node.is_leaf:
                feature.append(0)
                threshold.append(np.inf)
            else:
                feature.append(node.feature)
                threshold.append(node.threshold)
                children[2 * idx + 1] = visit(node.left)
                children[2 * idx] = visit(node.right)
            return idx

        visit(self._root)
        self._depth = self.depth_
        self._feature = np.array(feature, dtype=np.int64)
        self._threshold = np.array(threshold, dtype=np.float64)
        self._children = np.array(children, dtype=np.int64)
        self._value = np.array(value, dtype=np.float64)

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

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise ProxyModelError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ProxyModelError(
                f"expected X with {self.n_features_} features, got {X.shape}"
            )
        # vectorized descent: every row walks the flat arrays in lockstep
        # for exactly depth steps (a row that reaches its leaf stays there)
        rows = np.arange(len(X))
        idx = np.zeros(len(X), dtype=np.int64)
        for _ in range(self._depth):
            go_left = X[rows, self._feature[idx]] <= self._threshold[idx]
            idx = self._children[2 * idx + go_left]
        return self._value[idx]

    @property
    def depth_(self) -> int:
        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)
