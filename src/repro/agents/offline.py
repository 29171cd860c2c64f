"""Data-driven offline optimization agent (paper §3.4, §7, §8).

The paper motivates ArchGym's standardized datasets with data-driven
offline methods (PRIME [57], offline RL [59]): instead of querying the
simulator, learn a surrogate of the cost surface from *logged*
trajectories and optimize against it, spending real simulator queries
only to verify candidates.

``OfflineAgent`` implements that loop inside the standard Q1/Q2
interface:

1. **warm start** — it is constructed from an
   :class:`~repro.core.dataset.ArchGymDataset` of prior explorations
   (any mix of agents — diversity helps, §7.3),
2. **surrogate** — a random-forest regressor fit on (action, fitness),
3. **propose** — maximize the surrogate over a candidate pool, mixing
   in random exploration with probability ``exploration``,
4. **observe** — every real evaluation is appended to the training set
   and the surrogate refits every ``refit_every`` observations.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.agents.base import Agent
from repro.core.dataset import ArchGymDataset
from repro.core.errors import AgentError
from repro.core.spaces import CompositeSpace
from repro.proxy.forest import RandomForestRegressor

__all__ = ["OfflineAgent"]


class OfflineAgent(Agent):
    """Surrogate-guided search warm-started from logged exploration data."""

    name = "offline"

    def __init__(
        self,
        space: CompositeSpace,
        seed: int = 0,
        dataset: Optional[ArchGymDataset] = None,
        exploration: float = 0.1,
        candidate_pool: int = 512,
        refit_every: int = 16,
        n_estimators: int = 20,
        max_depth: int = 12,
    ) -> None:
        if not 0.0 <= exploration <= 1.0:
            raise AgentError("exploration must be in [0, 1]")
        if candidate_pool < 1 or refit_every < 1:
            raise AgentError("candidate_pool and refit_every must be >= 1")
        super().__init__(
            space, seed,
            exploration=exploration, candidate_pool=candidate_pool,
            refit_every=refit_every, n_estimators=n_estimators,
            max_depth=max_depth,
        )
        self.exploration = exploration
        self.candidate_pool = candidate_pool
        self.refit_every = refit_every
        self._forest = RandomForestRegressor(
            n_estimators=n_estimators, max_depth=max_depth,
            max_features=None, seed=seed,
        )
        self._X: List[np.ndarray] = []
        self._y: List[float] = []
        self._since_refit = 0
        self._fitted = False
        if dataset is not None and len(dataset) > 0:
            self.ingest(dataset)

    # -- offline data -----------------------------------------------------------------

    def ingest(self, dataset: ArchGymDataset) -> None:
        """Add logged transitions as surrogate training data.

        Rewards in the dataset are assumed maximize-me; environments with
        lower-is-better rewards should be ingested as negated rewards
        (``Transition.reward`` is raw, so we negate nothing here — the
        caller controls orientation, matching :func:`run_agent`).
        """
        for t in dataset:
            self._X.append(self.space.to_unit_vector(t.action))
            self._y.append(float(t.reward))
        self._refit()

    @property
    def n_training_points(self) -> int:
        return len(self._y)

    def _refit(self) -> None:
        if not self._X:
            return
        X = np.stack(self._X)
        y = np.asarray(self._y)
        # clip reward outliers (capped target rewards) to stabilize the fit
        lo, hi = np.percentile(y, [1, 99])
        self._forest.fit(X, np.clip(y, lo, hi))
        self._fitted = True
        self._since_refit = 0

    # -- Agent interface ----------------------------------------------------------------

    def propose(self) -> Dict[str, Any]:
        if not self._fitted or self.rng.random() < self.exploration:
            return self.space.sample(self.rng)
        candidates = self.space.sample_batch(self.rng, self.candidate_pool)
        C = np.stack([self.space.to_unit_vector(a) for a in candidates])
        scores = self._forest.predict(C)
        return candidates[int(np.argmax(scores))]

    def observe(self, action: Mapping[str, Any], fitness: float,
                metrics: Mapping[str, float]) -> None:
        self._X.append(self.space.to_unit_vector(action))
        self._y.append(float(fitness))
        self._since_refit += 1
        if self._since_refit >= self.refit_every:
            self._refit()
