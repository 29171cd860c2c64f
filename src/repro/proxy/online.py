"""Online surrogate pre-screening from the shared cache (paper §7).

The offline trainers in :mod:`repro.proxy.trainer` reproduce the
paper's Fig. 11–12 proxies, but never participate in a live sweep.
:class:`OnlineProxy` closes that loop: it incrementally (re)trains a
:class:`~repro.proxy.trainer.ProxyCostModel` forest per target metric
from the corpus the sweep's **shared cache** already accumulates — the
(canonical action key → metrics) entries every trial writes through —
and serves predictions to the oversample-and-rank screening stage in
:func:`repro.agents.base.run_agent`.

Lifecycle:

1. **Harvest.** Each generation, page the shared cache tier
   (file-backed :class:`~repro.core.cache_store.SharedCacheStore` or
   :class:`~repro.core.cache_store.ServerCacheStore`, which pages the
   first living host of the trial's pool; one ``list_encoded``
   contract) into the corpus. Entries that do not
   decode against this environment's action space or lack a target
   metric are foreign — another env's points sharing the store — and
   are skipped, never errors. The driver's own real evaluations stream
   in through :meth:`observe` without a round trip.
2. **Refit.** When the corpus has grown enough since the last fit,
   retrain the forests on a held-out split and record validation RMSE.
3. **Gate.** The proxy only *serves* once the corpus holds at least
   ``min_corpus`` points **and** the worst per-target relative
   validation RMSE clears ``max_relative_rmse`` — until then the
   driver falls back to plain dispatch, byte-identical to an
   unscreened run.

Everything is deterministic given the construction seed and the
sequence of harvested/observed points: refit timing is a pure function
of corpus size, subsampling and train/test splits use seeded
generators, and no wall-clock enters any decision.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.core.cache_store import encode_key, listing_pages
from repro.core.errors import ArchGymError, ProxyModelError
from repro.core.spaces import CompositeSpace
from repro.proxy.trainer import ProxyCostModel

__all__ = ["OnlineProxy"]

#: Page size for walking a shared-cache tier's ``list_encoded`` listing.
_HARVEST_PAGE = 500
#: Once the gate is open, only every N-th harvest call re-pages the
#: store — the driver's own evaluations arrive via :meth:`observe`, so
#: warm harvests exist only to pick up *other* trials' points and need
#: not pay a full listing walk (HTTP round trips on the server tier)
#: every generation.
_WARM_HARVEST_EVERY = 8
#: Minimum corpus growth (points) since the last fit before refitting.
_REFIT_MIN_GROWTH = 16


class OnlineProxy:
    """Incrementally retrained surrogate over the shared-cache corpus.

    Parameters
    ----------
    space:
        The environment's action space; features are its unit encoding.
    targets:
        Metric names to predict (the env's ``observation_metrics``).
    min_corpus:
        Cold-start gate: the proxy never serves below this corpus size.
    max_relative_rmse:
        Validation gate: the worst per-target relative RMSE (error as a
        fraction of the target's mean magnitude) of the latest refit
        must clear this before predictions are served.
    seed:
        Seeds the train/test splits and the fit-time subsample —
        everything stochastic about the proxy.
    max_fit_samples:
        Cap on points per refit; a larger corpus is subsampled with a
        seeded generator so refits stay bounded as the cache grows.
    """

    #: The smallest ``min_corpus`` accepted.
    MIN_CORPUS_FLOOR = 8

    def __init__(
        self,
        space: CompositeSpace,
        targets: Sequence[str],
        min_corpus: int = 64,
        max_relative_rmse: float = 0.35,
        seed: int = 0,
        max_fit_samples: int = 2048,
    ) -> None:
        if min_corpus < self.MIN_CORPUS_FLOOR:
            raise ProxyModelError(
                f"min_corpus must be >= {self.MIN_CORPUS_FLOOR} (got "
                f"{min_corpus}); a forest fitted on fewer points cannot "
                "produce a meaningful validation split"
            )
        if max_fit_samples < min_corpus:
            raise ProxyModelError(
                f"max_fit_samples ({max_fit_samples}) must be >= "
                f"min_corpus ({min_corpus})"
            )
        self.space = space
        self.targets = list(targets)
        self.min_corpus = int(min_corpus)
        self.max_relative_rmse = float(max_relative_rmse)
        self.seed = int(seed)
        self.max_fit_samples = int(max_fit_samples)
        self._x: List[np.ndarray] = []
        self._y: List[np.ndarray] = []
        self._seen: set = set()
        self._model: Optional[ProxyCostModel] = None
        self._fitted_at = 0
        self._gate_open = False
        self._harvest_calls = 0
        #: How many refits have happened (introspection/tests).
        self.refits = 0

    # -- introspection ------------------------------------------------------------

    @property
    def corpus_size(self) -> int:
        """Distinct design points currently in the training corpus."""
        return len(self._x)

    @property
    def last_rmse(self) -> float:
        """Worst per-target *relative* validation RMSE of the latest
        refit (0.0 before any model has been fitted)."""
        if self._model is None or not self._model.test_rmse_relative:
            return 0.0
        return float(max(self._model.test_rmse_relative.values()))

    @property
    def ready(self) -> bool:
        """Cold-start gate: corpus ≥ ``min_corpus`` and the latest
        refit's validation RMSE cleared ``max_relative_rmse``."""
        return self._gate_open

    def __repr__(self) -> str:
        return (
            f"OnlineProxy(targets={self.targets!r}, "
            f"corpus={self.corpus_size}, refits={self.refits}, "
            f"ready={self.ready}, last_rmse={self.last_rmse:.4f})"
        )

    # -- corpus -------------------------------------------------------------------

    def observe(self, action: Dict[str, Any], metrics: Dict[str, float]) -> bool:
        """Fold one ground-truth evaluation into the corpus.

        Returns whether the point was new. Duplicate keys, actions the
        space cannot encode, and missing/non-finite targets are all
        quietly skipped — the corpus only ever holds clean rows.
        """
        from repro.core.env import canonical_action_key

        try:
            key_str = encode_key(canonical_action_key(action))
        except (TypeError, ValueError, KeyError):
            return False
        return self._add(key_str, action, metrics)

    def ingest_store(self, store: Any) -> int:
        """Page a shared-cache tier's whole listing into the corpus.

        ``store`` is anything serving the
        ``list_encoded(offset, limit) -> (entries, total)`` contract —
        both :class:`~repro.core.cache_store.SharedCacheStore` and
        :class:`~repro.core.cache_store.ServerCacheStore` — walked by
        :func:`~repro.core.cache_store.listing_pages`. Returns how many
        new points were added.
        """
        added = 0
        for entries in listing_pages(store.list_encoded, _HARVEST_PAGE):
            for key_str, metrics in entries:
                if self._ingest_entry(key_str, metrics):
                    added += 1
        return added

    def harvest(self, store: Any) -> int:
        """Round-throttled :meth:`ingest_store`.

        While the gate is closed every call harvests (the corpus is the
        only path to readiness); once the proxy is serving, only every
        ``_WARM_HARVEST_EVERY``-th call pages the store again.
        """
        self._harvest_calls += 1
        if self._gate_open and (self._harvest_calls % _WARM_HARVEST_EVERY) != 1:
            return 0
        return self.ingest_store(store)

    def _ingest_entry(self, key_str: str, metrics: Dict[str, float]) -> bool:
        """One listing entry → corpus row; the key decodes back to an
        action dict (``encode_key`` of a canonical key is JSON of
        ``[[name, value], ...]`` pairs)."""
        if key_str in self._seen:
            return False
        try:
            pairs = json.loads(key_str)
            action = {str(name): value for name, value in pairs}
        except (TypeError, ValueError):
            return False
        return self._add(key_str, action, metrics)

    def _add(
        self, key_str: str, action: Dict[str, Any], metrics: Dict[str, float]
    ) -> bool:
        if key_str in self._seen:
            return False
        try:
            x = np.asarray(self.space.to_unit_vector(action), dtype=np.float64)
            y = np.array(
                [float(metrics[t]) for t in self.targets], dtype=np.float64
            )
        except (ArchGymError, KeyError, TypeError, ValueError):
            return False  # foreign entry: another env sharing the store
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            return False
        self._seen.add(key_str)
        self._x.append(x)
        self._y.append(y)
        return True

    # -- training -----------------------------------------------------------------

    def maybe_refit(self) -> bool:
        """Refit if the corpus warrants it; returns whether it did.

        Deterministic policy: never below ``min_corpus``; after the
        first fit, only once the corpus has grown by at least
        ``max(_REFIT_MIN_GROWTH, previous_size // 4)`` points — refit
        cost stays amortized against corpus growth.
        """
        n = len(self._x)
        if n < self.min_corpus:
            return False
        grown = n - self._fitted_at
        if self._model is not None and grown < max(
            _REFIT_MIN_GROWTH, self._fitted_at // 4
        ):
            return False
        X = np.stack(self._x)
        Y = np.stack(self._y)
        if n > self.max_fit_samples:
            # Seed varies with corpus size so successive subsamples
            # differ, yet any (seed, corpus) pair replays exactly.
            rng = np.random.default_rng(self.seed + n)
            idx = np.sort(
                rng.choice(n, size=self.max_fit_samples, replace=False)
            )
            X, Y = X[idx], Y[idx]
        model = ProxyCostModel(self.space, list(self.targets))
        model.fit_matrices(X, Y, test_fraction=0.2, seed=self.seed)
        self._model = model
        self._fitted_at = n
        self.refits += 1
        self._gate_open = self.last_rmse <= self.max_relative_rmse
        return True

    # -- inference ----------------------------------------------------------------

    def predict_batch(
        self, actions: Sequence[Dict[str, Any]]
    ) -> List[Dict[str, float]]:
        """Predict all targets for a list of action dicts (one matrix
        pass through the forests)."""
        if self._model is None:
            raise ProxyModelError(
                "online proxy has no fitted model yet (corpus "
                f"{self.corpus_size}/{self.min_corpus})"
            )
        X = np.stack(
            [
                np.asarray(self.space.to_unit_vector(a), dtype=np.float64)
                for a in actions
            ]
        )
        pred = self._model.predict_matrix(X)
        return [
            {t: float(pred[i, j]) for j, t in enumerate(self.targets)}
            for i in range(len(actions))
        ]
