"""Ant colony optimization agent (paper §3.2, Table 2).

The policy is a *pheromone table*: one trail level per (parameter,
value) pair. Each ant constructs a design by sampling every parameter
proportionally to ``pheromone ** alpha`` — or greedily picking the
strongest trail with probability ``greediness`` (Q3's
exploration/exploitation switch). After a cohort of ``n_ants``
completes, trails evaporate by ``evaporation_rate`` and the cohort's
best ants deposit rank-weighted pheromone on the values they used
(rank-based deposits keep the update scale-free, since reward
magnitudes vary wildly across environments).
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.agents.base import Agent
from repro.core.errors import AgentError
from repro.core.spaces import CompositeSpace, choice_cdf, choice_index

__all__ = ["ACOAgent"]


class ACOAgent(Agent):
    """Ant colony optimization over the per-parameter value grid."""

    name = "aco"

    def __init__(
        self,
        space: CompositeSpace,
        seed: int = 0,
        n_ants: int = 8,
        evaporation_rate: float = 0.1,
        alpha: float = 1.0,
        greediness: float = 0.1,
        deposit: float = 1.0,
    ) -> None:
        if n_ants < 1:
            raise AgentError("n_ants must be >= 1")
        if not 0.0 < evaporation_rate <= 1.0:
            raise AgentError("evaporation_rate must be in (0, 1]")
        if alpha <= 0:
            raise AgentError("alpha must be positive")
        if not 0.0 <= greediness <= 1.0:
            raise AgentError("greediness must be in [0, 1]")
        if deposit <= 0:
            raise AgentError("deposit must be positive")
        super().__init__(
            space, seed,
            n_ants=n_ants, evaporation_rate=evaporation_rate,
            alpha=alpha, greediness=greediness, deposit=deposit,
        )
        self.n_ants = n_ants
        self.evaporation_rate = evaporation_rate
        self.alpha = alpha
        self.greediness = greediness
        self.deposit = deposit
        # one trail vector per parameter, initialized flat
        self._trails: List[np.ndarray] = [
            np.ones(p.cardinality, dtype=np.float64) for p in space
        ]
        self._cohort: List[Tuple[np.ndarray, float]] = []
        self._reset_picks()

    def _reset_picks(self) -> None:
        # Trails move only in _update_trails, so each dimension's greedy
        # pick and sampling CDF hold until then. A CDF is built at its
        # dimension's first non-greedy draw, so a degenerate one raises
        # at the draw where rng.choice would have.
        self._argmax = [int(np.argmax(trail)) for trail in self._trails]
        self._cdfs: List[Optional[List[float]]] = [None] * len(self._trails)

    # -- solution construction ----------------------------------------------------

    def propose(self) -> Dict[str, Any]:
        rng = self.rng
        indices = []
        for i, cdf in enumerate(self._cdfs):
            if rng.random() < self.greediness:
                indices.append(self._argmax[i])
            else:
                if cdf is None:
                    cdf = self._cdf(i)
                indices.append(choice_index(cdf, rng))
        return self.space.decode(indices)

    def _cdf(self, i: int) -> List[float]:
        weights = self._trails[i] ** self.alpha
        weights = weights / weights.sum()
        try:
            cdf = self._cdfs[i] = choice_cdf(weights)
        except ValueError as exc:
            raise AgentError(
                f"{self.name}: cannot sample parameter {self.space.names[i]!r}: {exc}"
            ) from None
        return cdf

    def propose_batch(self) -> List[Dict[str, Any]]:
        """The remainder of the current cohort, one design per ant.

        Trails only move after a full cohort observes and
        :meth:`observe` draws no randomness, so constructing the
        remaining ants back to back consumes the RNG stream exactly as
        the serial interleaving would — a batched run stays
        byte-identical. ``observe_batch`` keeps the base-class
        per-point loop: cohort accounting (and the trail update on the
        cohort's last ant) already lives in :meth:`observe`.
        """
        remaining = self.n_ants - len(self._cohort)
        return [self.propose() for _ in range(max(1, remaining))]

    # -- pheromone update -----------------------------------------------------------

    def observe(self, action: Mapping[str, Any], fitness: float,
                metrics: Mapping[str, float]) -> None:
        self._cohort.append((self.space.encode(action), fitness))
        if len(self._cohort) >= self.n_ants:
            self._update_trails()
            self._cohort = []

    def _update_trails(self) -> None:
        for trail in self._trails:
            trail *= 1.0 - self.evaporation_rate
            np.maximum(trail, 1e-6, out=trail)
        # rank-based deposits: best ant deposits `deposit`, the rest
        # geometrically less; worst half deposits nothing.
        ranked = sorted(self._cohort, key=lambda pair: -pair[1])
        n_depositors = max(1, len(ranked) // 2)
        for rank, (indices, __) in enumerate(ranked[:n_depositors]):
            amount = self.deposit * (0.5 ** rank)
            for dim, value_index in enumerate(indices):
                self._trails[dim][value_index] += amount
        self._reset_picks()

    # -- introspection ------------------------------------------------------------------

    def trail_entropy(self) -> float:
        """Mean normalized entropy of the trails — 1.0 means uniform
        (fully exploratory), 0.0 means fully converged."""
        entropies = []
        for trail in self._trails:
            if len(trail) == 1:
                continue
            p = trail / trail.sum()
            h = -(p * np.log(p + 1e-12)).sum() / np.log(len(trail))
            entropies.append(h)
        return float(np.mean(entropies)) if entropies else 0.0
