"""Bayesian optimization agent (paper §3.2, Table 2).

The policy is a Gaussian-process *surrogate model* over unit-vector
design encodings; the acquisition function (Q3) balances exploration
and exploitation. Each proposal maximizes the acquisition over a random
candidate pool (discrete spaces make gradient-based acquisition
optimization moot); the surrogate refits on every new observation, with
a sliding window to respect BO's cubic fitting cost (§2 of the paper
discusses exactly this scaling limit).

EI and PI take the standard normal CDF as ``scipy.special.ndtr(z)`` and
its PDF as ``exp(-z**2/2) / sqrt(2*pi)``. Those are what
``scipy.stats.norm.cdf`` and ``norm.pdf`` compute at ``loc=0, scale=1``
(their ``(z - 0) / 1`` is exact, and their masks give the same values
at ±inf and NaN), so the scores keep their bits without importing
``scipy.stats``. SciPy is imported where it is first needed, here and
in :mod:`repro.agents.gp`: ``import repro`` stays free of it, and only a
run that reaches a model-based proposal pays its import.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping

import numpy as np

from repro.agents.base import Agent
from repro.agents.gp import GaussianProcess, robust_standardize
from repro.core.errors import AgentError
from repro.core.spaces import CompositeSpace

__all__ = ["BOAgent", "ACQUISITIONS"]

ACQUISITIONS = ("ei", "ucb", "pi")

_SQRT_2PI = np.sqrt(2 * np.pi)


class BOAgent(Agent):
    """GP-based Bayesian optimization with EI / UCB / PI acquisitions."""

    name = "bo"

    def __init__(
        self,
        space: CompositeSpace,
        seed: int = 0,
        acquisition: str = "ei",
        lengthscale: float = 0.3,
        kappa: float = 2.0,
        xi: float = 0.01,
        n_init: int = 8,
        candidate_pool: int = 256,
        max_observations: int = 300,
    ) -> None:
        if acquisition not in ACQUISITIONS:
            raise AgentError(f"acquisition must be one of {ACQUISITIONS}")
        if n_init < 1:
            raise AgentError("n_init must be >= 1")
        if candidate_pool < 2:
            raise AgentError("candidate_pool must be >= 2")
        if max_observations < n_init:
            raise AgentError("max_observations must be >= n_init")
        super().__init__(
            space, seed,
            acquisition=acquisition, lengthscale=lengthscale,
            kappa=kappa, xi=xi, n_init=n_init,
            candidate_pool=candidate_pool, max_observations=max_observations,
        )
        self.acquisition = acquisition
        self.kappa = kappa
        self.xi = xi
        self.n_init = n_init
        self.candidate_pool = candidate_pool
        self.max_observations = max_observations
        self._gp = GaussianProcess(lengthscale=lengthscale)
        self._X: List[np.ndarray] = []
        self._y: List[float] = []

    # -- acquisition functions -------------------------------------------------------

    def _acquire(self, mean: np.ndarray, var: np.ndarray, best_z: float) -> np.ndarray:
        std = np.sqrt(var)
        if self.acquisition == "ucb":
            return mean + self.kappa * std
        from scipy.special import ndtr

        improvement = mean - best_z - self.xi
        z = improvement / std
        if self.acquisition == "pi":
            return ndtr(z)
        # expected improvement
        return improvement * ndtr(z) + std * (np.exp(-z**2 / 2.0) / _SQRT_2PI)

    # -- Agent interface ---------------------------------------------------------------

    def propose(self) -> Dict[str, Any]:
        if len(self._X) < self.n_init:
            return self.space.sample(self.rng)

        window = slice(max(0, len(self._X) - self.max_observations), None)
        X = np.stack(self._X[window])
        y = np.asarray(self._y[window])
        z, __, __ = robust_standardize(y)
        self._gp.fit(X, z)

        candidates = self.space.sample_batch(self.rng, self.candidate_pool)
        C = np.stack([self.space.to_unit_vector(a) for a in candidates])
        mean, var = self._gp.predict(C)
        scores = self._acquire(mean, var, best_z=float(z.max()))
        return candidates[int(np.argmax(scores))]

    def observe(self, action: Mapping[str, Any], fitness: float,
                metrics: Mapping[str, float]) -> None:
        self._X.append(self.space.to_unit_vector(action))
        self._y.append(float(fitness))
