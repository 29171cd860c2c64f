"""CART regression tree (numpy implementation).

scikit-learn is not a dependency, so the random-forest proxy models of
§7.2 are built on this from-scratch tree: greedy variance-reduction
splits, with the usual depth / leaf-size / feature-subsampling controls
the forest needs.

A node is scored by one of two scans, chosen by its row count.

A node of more than ``_SMALL_NODE`` (128) rows costs a fixed handful of
numpy calls, however many candidate features it scores. It is an index
array into the training rows, kept in row order. Its ``m`` candidate
features are gathered as the rows of one ``(m, n)`` array, which one
stable ``argsort`` sorts. What is sorted is each value's position in a
stable sort of its feature over all rows, found once per fit: positions
order the node's rows exactly as their values do, and numpy sorts small
integers several times faster than floats. Prefix sums of ``y`` and
``y²`` (squared once per fit) along the sorted rows then score every
split of every candidate in one pass.

Those calls cost tens of microseconds at any size, and most nodes of
a forest tree are small, so a node of at most ``_SMALL_NODE`` rows
grows its whole subtree in plain Python, from Python lists of the same
arrays made once per fit. Per candidate it sorts the rows by the same
positions, keeps running sums seeded with the first value (``cumsum``
adds left to right too), and scores only the positions between two
different feature values: the numpy scan scores every other position
``-inf``, so it never wins. A node's own sums, for its mean and its
SSE, are numpy's pairwise ``sum``, which from eight values on rounds
differently from a left-to-right sum; :func:`_node_sum` copies its
order, which is defined only up to 128 values — hence the bound.

Both scans grow the trees the per-feature scan they replaced grew, node
for node (``tests/test_tree_parity.py`` checks it against the copy kept
in ``tests/tree_reference.py``): every float expression keeps its
operands and their order, the best feature is picked in subset order by
the same ``> best + 1e-12`` rule, and the feature subsets are drawn
once per splittable node in depth-first pre-order.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate, compress
from operator import add, not_
from typing import List, Optional, Sequence

import numpy as np

from repro.core.errors import ProxyModelError

__all__ = ["DecisionTreeRegressor"]

#: Nodes of at most this many rows grow by the scalar scan. No more
#: than 128: :func:`_node_sum` copies numpy's sum only that far.
_SMALL_NODE = 128


def _is_count(value: object) -> bool:
    """Whether ``value`` is an int >= 1 (numpy integers count, bools do
    not)."""
    return (
        isinstance(value, (int, np.integer))
        and not isinstance(value, bool)
        and value >= 1
    )


def _node_sum(values: Sequence[float]) -> float:
    """``np.sum`` of at most 128 float64 values, bit for bit.

    numpy adds a float reduction into its identity, ``0.0``, with a
    pairwise sum whose base case is a block of up to 128 values: below
    eight values it adds left to right from ``-0.0``; from eight on,
    eight accumulators each take every eighth value, they are combined
    as ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, and the values past the
    last multiple of eight are added after. A left-to-right sum gives
    other bits at any length from eight on.
    """
    n = len(values)
    if n < 8:
        return 0.0 + reduce(add, values, -0.0)
    r0, r1, r2, r3, r4, r5, r6, r7 = values[:8]
    m = n - n % 8
    for i in range(8, m, 8):
        a0, a1, a2, a3, a4, a5, a6, a7 = values[i : i + 8]
        r0 += a0
        r1 += a1
        r2 += a2
        r3 += a3
        r4 += a4
        r5 += a5
        r6 += a6
        r7 += a7
    block = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
    return 0.0 + reduce(add, values[m:], block)


def _descend(
    roots: np.ndarray,
    depth: int,
    feature: np.ndarray,
    threshold: np.ndarray,
    children: np.ndarray,
    value: np.ndarray,
    X: np.ndarray,
) -> np.ndarray:
    """The leaf values the rows of ``X`` reach from each of ``roots``, as
    a ``(roots, rows)`` array.

    The nodes are flat arrays as :meth:`DecisionTreeRegressor._flatten`
    packs them, possibly of several trees joined. Every row walks from
    every root in lockstep for exactly ``depth`` steps; leaves are
    absorbing, so a row that reaches its leaf sooner stays there. ``X``
    is read as one flat array, ``flat[row * d + feature]``, which gathers
    faster than the 2-D ``X[rows, feature]``.
    """
    n, d = X.shape
    flat = X.ravel()
    offsets = np.arange(n) * d
    idx = np.repeat(roots[:, None], n, axis=1)
    for _ in range(depth):
        go_left = flat[offsets + feature[idx]] <= threshold[idx]
        idx = children[2 * idx + go_left]
    return value[idx]


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


def _sort_keys(xt: np.ndarray) -> np.ndarray:
    """Each value of ``xt`` replaced by its position in a stable sort of
    its row.

    Positions order any subset of a row's values exactly as a stable
    sort of the values does: by value, NaNs last, ties in row order.
    Positions below 2**16 are stored as ``uint16``, which numpy sorts
    with a radix sort, several times faster than it sorts floats.
    """
    n = xt.shape[1]
    keys = np.empty(xt.shape, np.uint16 if n <= 1 << 16 else np.intp)
    np.put_along_axis(keys, np.argsort(xt, axis=1, kind="stable"), np.arange(n), axis=1)
    return keys


class DecisionTreeRegressor:
    """Greedy CART regressor.

    Parameters
    ----------
    max_depth:
        Maximum tree depth (root = depth 0), an int >= 1.
    min_samples_leaf:
        Minimum samples in each child of a split, an int >= 1.
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
        for name, value in (
            ("max_depth", max_depth),
            ("min_samples_leaf", min_samples_leaf),
        ):
            if not _is_count(value):
                raise ProxyModelError(f"{name} must be an int >= 1, got {value!r}")
        if not (
            max_features is None
            or max_features == "sqrt"
            or _is_count(max_features)
        ):
            raise ProxyModelError(
                "max_features must be None, 'sqrt' or an int >= 1, "
                f"got {max_features!r}"
            )
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.max_features = max_features
        self.seed = seed
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
        # a fresh generator per fit, so a refit on the same data grows
        # the same tree
        self.rng = np.random.default_rng(self.seed)
        xt = np.ascontiguousarray(X.T)
        keys = _sort_keys(xt)
        y2 = y * y
        # the scalar scan's copies live only as long as this call
        lists = (xt.tolist(), keys.tolist(), y.tolist(), y2.tolist())
        self._root = self._grow(xt, keys, y, y2, lists, np.arange(len(y)), depth=0)
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

    def _grow(
        self,
        xt: np.ndarray,
        keys: np.ndarray,
        y: np.ndarray,
        y2: np.ndarray,
        lists: tuple,
        rows: np.ndarray,
        depth: int,
    ) -> _Node:
        """Grow the subtree over the training rows ``rows`` (ascending).

        ``xt`` is ``X`` transposed, one feature per row, ``keys`` its
        :func:`_sort_keys`, and ``y2`` is ``y * y``; ``lists`` holds the
        four as Python lists, for :meth:`_grow_small`, which grows a
        node of at most ``_SMALL_NODE`` rows. The best split minimizes
        the children's total SSE.
        """
        n = len(rows)
        if n <= _SMALL_NODE:
            return self._grow_small(*lists, rows.tolist(), depth)
        y_node = y[rows]
        total_sum = y_node.sum()
        node = _Node(value=float(total_sum / n))
        self.n_nodes_ += 1
        min_leaf = self.min_samples_leaf
        if (
            depth >= self.max_depth
            or n < 2 * min_leaf
            or y_node.max() - y_node.min() < 1e-15
        ):
            return node
        features = self._feature_subset(len(xt))
        total_sq = y2[rows].sum()
        parent_sse = total_sq - total_sum * total_sum / n

        # row i of each (m, n) array is candidate features[i], sorted
        cand = features[:, None]
        sorted_rows = rows[keys[cand, rows].argsort(axis=1, kind="stable")]
        xs = xt[cand, sorted_rows]
        csum = y[sorted_rows].cumsum(axis=1)
        csq = y2[sorted_rows].cumsum(axis=1)

        # split after sorted position k in [lo, hi) (left = first k+1)
        lo, hi = min_leaf - 1, n - min_leaf
        left_n = np.arange(lo, hi) + 1.0
        right_n = n - left_n
        left_sse = csq[:, lo:hi] - csum[:, lo:hi] ** 2 / left_n
        right_sum = total_sum - csum[:, lo:hi]
        right_sse = (total_sq - csq[:, lo:hi]) - right_sum**2 / right_n
        gain = parent_sse - (left_sse + right_sse)

        # forbid splits between equal feature values
        gain = np.where(xs[:, lo:hi] < xs[:, lo + 1 : hi + 1], gain, -np.inf)
        pos = gain.argmax(axis=1)
        best, best_gain = -1, 0.0
        for i, g in enumerate(gain.max(axis=1).tolist()):
            if g > best_gain + 1e-12:
                best, best_gain = i, g
        if best < 0:
            return node
        k = lo + pos[best]
        node.feature = int(features[best])
        node.threshold = float((xs[best, k] + xs[best, k + 1]) / 2.0)
        go_left = xt[node.feature, rows] <= node.threshold
        node.left = self._grow(xt, keys, y, y2, lists, rows[go_left], depth + 1)
        node.right = self._grow(xt, keys, y, y2, lists, rows[~go_left], depth + 1)
        return node

    def _grow_small(
        self,
        xt: List[List[float]],
        keys: List[List[int]],
        y: List[float],
        y2: List[float],
        rows: List[int],
        depth: int,
    ) -> _Node:
        """:meth:`_grow` for a node of at most ``_SMALL_NODE`` rows and
        its whole subtree, from the Python lists of ``fit``'s arrays:
        every float expression of the numpy scan, in its order, on
        Python floats. Only positions between two different values of
        a candidate are scored; numpy scores every other one ``-inf``.
        """
        n = len(rows)
        self.n_nodes_ += 1
        if not n:
            # A threshold that rounds onto the next value up, or
            # overflows to inf, can send every row left; numpy's mean
            # of the empty right child is NaN.
            return _Node(np.nan)
        y_node = list(map(y.__getitem__, rows))
        total_sum = _node_sum(y_node)
        node = _Node(total_sum / n)
        min_leaf = self.min_samples_leaf
        # A NaN target makes numpy's max - min NaN, never below 1e-15.
        # It makes the sum NaN too, which otherwise takes an inf and a
        # -inf, and then max - min is inf.
        if (
            depth >= self.max_depth
            or n < 2 * min_leaf
            or (total_sum == total_sum and max(y_node) - min(y_node) < 1e-15)
        ):
            return node
        features = self._feature_subset(len(xt)).tolist()
        total_sq = _node_sum(list(map(y2.__getitem__, rows)))
        parent_sse = total_sq - total_sum * total_sum / n

        lo, hi = min_leaf - 1, n - min_leaf
        best_gain, best_feature, best_threshold = 0.0, -1, 0.0
        for f in features:
            order = sorted(rows, key=keys[f].__getitem__)
            x = xt[f]
            if x[order[lo]] == x[order[hi]]:
                continue  # sorted, so no two values differ in between
            xs = list(map(x.__getitem__, order))
            cuts = [k for k in range(lo, hi) if xs[k] < xs[k + 1]]
            # accumulate, like cumsum, starts from the first value and
            # adds left to right; numpy squares with x * x
            csum = list(accumulate(map(y.__getitem__, order)))
            csq = list(accumulate(map(y2.__getitem__, order)))
            # The numpy scan's row max: the first largest gain. A NaN
            # gain makes that max NaN, which never beats best_gain.
            top, top_k = -np.inf, lo
            for k in cuts:
                left_n = k + 1.0
                left_sse = csq[k] - csum[k] * csum[k] / left_n
                right_sum = total_sum - csum[k]
                right_sse = (total_sq - csq[k]) - right_sum * right_sum / (n - left_n)
                gain = parent_sse - (left_sse + right_sse)
                if gain > top:
                    top, top_k = gain, k
                elif gain != gain:
                    break
            else:
                if top > best_gain + 1e-12:
                    best_gain, best_feature = top, f
                    best_threshold = (xs[top_k] + xs[top_k + 1]) / 2.0
        if best_feature < 0:
            return node
        node.feature = best_feature
        node.threshold = best_threshold
        # <=, not >: a NaN feature value goes right
        x = xt[best_feature]
        go_left = [x[r] <= best_threshold for r in rows]
        left = list(compress(rows, go_left))
        right = list(compress(rows, map(not_, go_left)))
        node.left = self._grow_small(xt, keys, y, y2, left, depth + 1)
        node.right = self._grow_small(xt, keys, y, y2, right, depth + 1)
        return node

    def predict(self, X: np.ndarray) -> np.ndarray:
        if self._root is None:
            raise ProxyModelError("tree is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if X.ndim != 2 or X.shape[1] != self.n_features_:
            raise ProxyModelError(
                f"expected X with {self.n_features_} features, got {X.shape}"
            )
        root = np.zeros(1, dtype=np.int64)
        return _descend(
            root, self._depth, self._feature, self._threshold,
            self._children, self._value, X,
        )[0]

    @property
    def depth_(self) -> int:
        def walk(node: Optional[_Node]) -> int:
            if node is None or node.is_leaf:
                return 0
            return 1 + max(walk(node.left), walk(node.right))

        return walk(self._root)
