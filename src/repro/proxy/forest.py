"""Random forest regressor (bagged CART trees) — the §7.2 proxy model."""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.errors import ProxyModelError
from repro.proxy.tree import DecisionTreeRegressor, _is_count

__all__ = ["RandomForestRegressor"]


class RandomForestRegressor:
    """Bootstrap-aggregated regression trees with feature subsampling.

    The paper trains one random forest per predicted metric (latency,
    power, energy) on ArchGym datasets; this implementation mirrors the
    scikit-learn estimator the authors used.
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

    def fit(self, X: np.ndarray, y: np.ndarray) -> "RandomForestRegressor":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if len(X) != len(y) or len(y) == 0:
            raise ProxyModelError(f"bad training shapes X{X.shape} y{y.shape}")
        rng = np.random.default_rng(self.seed)
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
        return self

    def predict(self, X: np.ndarray) -> np.ndarray:
        if not self._trees:
            raise ProxyModelError("forest is not fitted")
        preds = np.stack([tree.predict(X) for tree in self._trees])
        return preds.mean(axis=0)

    @property
    def is_fitted(self) -> bool:
        return bool(self._trees)
