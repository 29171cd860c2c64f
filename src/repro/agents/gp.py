"""A small exact Gaussian process regressor (numpy/scipy).

Backs the Bayesian optimization agent: RBF kernel on unit-vector
encodings, Cholesky-based exact inference, robust target standardization
(median/IQR with clipping) so the REWARD_CAP outliers of target-style
rewards don't destroy the fit.

``fit`` and ``predict`` import ``scipy.linalg`` themselves: SciPy is
only needed once a GP is fitted, so importing :mod:`repro` (every CLI
call, service host and sweep worker) does not load it.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.core.errors import AgentError

__all__ = ["GaussianProcess", "robust_standardize"]


def robust_standardize(y: np.ndarray, clip: float = 5.0) -> Tuple[np.ndarray, float, float]:
    """Standardize with median/IQR and clip to ``[-clip, clip]``.

    Returns ``(standardized, center, scale)``. Using the IQR instead of
    the standard deviation keeps a handful of capped-reward outliers
    from flattening the rest of the response surface.
    """
    center = float(np.median(y))
    q75, q25 = np.percentile(y, [75, 25])
    scale = float(q75 - q25) / 1.349  # IQR of a unit normal
    if scale <= 1e-12:
        scale = float(np.std(y))
    if scale <= 1e-12:
        scale = 1.0
    z = np.clip((y - center) / scale, -clip, clip)
    return z, center, scale


class GaussianProcess:
    """Exact GP regression with an RBF kernel.

    ``k(x, x') = signal^2 * exp(-||x - x'||^2 / (2 * lengthscale^2))``
    """

    def __init__(
        self,
        lengthscale: float = 0.3,
        signal: float = 1.0,
        noise: float = 1e-3,
    ) -> None:
        if lengthscale <= 0 or signal <= 0 or noise <= 0:
            raise AgentError("GP hyperparameters must be positive")
        self.lengthscale = lengthscale
        self.signal = signal
        self.noise = noise
        self._X: Optional[np.ndarray] = None
        self._alpha: Optional[np.ndarray] = None
        self._cho = None

    # -- kernel ------------------------------------------------------------------

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        sq = (
            np.sum(A**2, axis=1)[:, None]
            + np.sum(B**2, axis=1)[None, :]
            - 2.0 * A @ B.T
        )
        np.maximum(sq, 0.0, out=sq)
        return self.signal**2 * np.exp(-sq / (2.0 * self.lengthscale**2))

    # -- inference ----------------------------------------------------------------

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GaussianProcess":
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64).ravel()
        if X.ndim != 2 or len(X) != len(y):
            raise AgentError(f"bad GP training shapes: X{X.shape}, y{y.shape}")
        if len(X) == 0:
            raise AgentError("cannot fit a GP on zero observations")
        from scipy.linalg import cho_factor, cho_solve

        K = self._kernel(X, X)
        K[np.diag_indices_from(K)] += self.noise
        self._cho = cho_factor(K, lower=True)
        self._alpha = cho_solve(self._cho, y)
        self._X = X
        return self

    def predict(self, Xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Posterior mean and variance at query points."""
        if self._X is None or self._alpha is None:
            raise AgentError("GP is not fitted")
        from scipy.linalg import cho_solve

        Xs = np.asarray(Xs, dtype=np.float64)
        Ks = self._kernel(Xs, self._X)
        mean = Ks @ self._alpha
        v = cho_solve(self._cho, Ks.T)
        var = self.signal**2 - np.sum(Ks * v.T, axis=1)
        np.maximum(var, 1e-12, out=var)
        return mean, var

    @property
    def n_observations(self) -> int:
        return 0 if self._X is None else len(self._X)
