"""Reinforcement learning agent (paper §3.2, Table 2).

The policy is a small MLP (numpy forward/backward, Adam optimizer)
producing a *factorized categorical* distribution — one softmax head per
design parameter. Architecture DSE episodes are single-step (§3.3:
every ``step`` evaluates one design), so the network conditions on a
constant context and learning reduces to policy-gradient bandit
optimization, in two flavours:

- ``algo="reinforce"`` — REINFORCE with within-batch advantage
  standardization and an entropy bonus,
- ``algo="ppo"`` — PPO's clipped surrogate objective with multiple
  epochs per batch (the formulation the paper cites [88]).

RL's well-known sample inefficiency (paper §6.2) emerges naturally: the
policy only improves after whole batches of simulator queries.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.agents.base import Agent
from repro.core.errors import AgentError
from repro.core.spaces import CompositeSpace, choice_cdf, choice_index

__all__ = ["RLAgent"]


class _Adam:
    """Adam optimizer over a list of numpy parameter arrays."""

    def __init__(self, params: List[np.ndarray], lr: float):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self.beta1, self.beta2, self.eps = 0.9, 0.999, 1e-8

    def step(self, grads: List[np.ndarray]) -> None:
        self.t += 1
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            m *= self.beta1
            m += (1 - self.beta1) * g
            v *= self.beta2
            v += (1 - self.beta2) * g * g
            m_hat = m / (1 - self.beta1**self.t)
            v_hat = v / (1 - self.beta2**self.t)
            p += self.lr * m_hat / (np.sqrt(v_hat) + self.eps)  # gradient ascent


class _PolicyNet:
    """Constant-context MLP: 1 -> hidden (tanh) -> concatenated logits."""

    def __init__(self, hidden: int, n_logits: int, rng: np.random.Generator):
        scale = 0.1
        self.w1 = rng.normal(0, scale, size=(hidden, 1))
        self.b1 = np.zeros(hidden)
        self.w2 = rng.normal(0, scale, size=(n_logits, hidden))
        self.b2 = np.zeros(n_logits)

    @property
    def params(self) -> List[np.ndarray]:
        return [self.w1, self.b1, self.w2, self.b2]

    def forward(self) -> Tuple[np.ndarray, np.ndarray]:
        """Returns (logits, hidden_activations)."""
        h = np.tanh(self.w1[:, 0] + self.b1)
        logits = self.w2 @ h + self.b2
        return logits, h

    def backward(self, g_logits: np.ndarray, h: np.ndarray) -> List[np.ndarray]:
        """Gradients of a scalar objective wrt params, given d(obj)/d(logits)."""
        gw2 = np.outer(g_logits, h)
        gb2 = g_logits
        gh = self.w2.T @ g_logits
        gpre = gh * (1.0 - h * h)
        gw1 = gpre[:, None]  # input is the constant 1.0
        gb1 = gpre
        return [gw1, gb1, gw2, gb2]


class RLAgent(Agent):
    """Policy-gradient search over the factorized design distribution."""

    name = "rl"

    def __init__(
        self,
        space: CompositeSpace,
        seed: int = 0,
        algo: str = "reinforce",
        lr: float = 0.05,
        hidden_size: int = 32,
        entropy_coef: float = 0.01,
        batch_size: int = 16,
        ppo_epochs: int = 4,
        clip_eps: float = 0.2,
    ) -> None:
        if algo not in ("reinforce", "ppo"):
            raise AgentError("algo must be 'reinforce' or 'ppo'")
        if lr <= 0 or batch_size < 1 or hidden_size < 1:
            raise AgentError("lr, batch_size and hidden_size must be positive")
        if ppo_epochs < 1:
            raise AgentError("ppo_epochs must be >= 1")
        if not 0.0 < clip_eps < 1.0:
            raise AgentError("clip_eps must be in (0, 1)")
        super().__init__(
            space, seed,
            algo=algo, lr=lr, hidden_size=hidden_size,
            entropy_coef=entropy_coef, batch_size=batch_size,
            ppo_epochs=ppo_epochs, clip_eps=clip_eps,
        )
        self.algo = algo
        self.entropy_coef = entropy_coef
        self.batch_size = batch_size
        self.ppo_epochs = ppo_epochs
        self.clip_eps = clip_eps

        self._cards = space.cardinalities
        self._offsets = np.concatenate([[0], np.cumsum(self._cards)])
        self.net = _PolicyNet(hidden_size, int(self._offsets[-1]), self.rng)
        self.opt = _Adam(self.net.params, lr)
        self._batch: List[Tuple[np.ndarray, float]] = []  # (indices, fitness)
        self.updates = 0
        # The policy moves only in _update, so the per-dimension
        # probabilities and sampling CDFs hold until then. Each CDF is
        # built at its dimension's first draw, so a degenerate one raises
        # at the draw where rng.choice would have.
        self._probs: Optional[List[np.ndarray]] = None
        self._cdfs: List[Optional[List[float]]] = []

    # -- distribution helpers --------------------------------------------------------

    def _dim_probs(self, logits: np.ndarray) -> List[np.ndarray]:
        probs = []
        for i, c in enumerate(self._cards):
            z = logits[self._offsets[i]: self._offsets[i + 1]]
            z = z - z.max()
            e = np.exp(z)
            probs.append(e / e.sum())
        return probs

    def _log_prob(self, probs: List[np.ndarray], indices: np.ndarray) -> float:
        return float(sum(np.log(p[i] + 1e-12) for p, i in zip(probs, indices)))

    # -- Agent interface ----------------------------------------------------------------

    def propose(self) -> Dict[str, Any]:
        if self._probs is None:
            logits, __ = self.net.forward()
            self._probs = self._dim_probs(logits)
            self._cdfs = [None] * len(self._probs)
        indices = []
        for i, cdf in enumerate(self._cdfs):
            if cdf is None:
                cdf = self._cdf(i)
            indices.append(choice_index(cdf, self.rng))
        return self.space.decode(indices)

    def _cdf(self, i: int) -> List[float]:
        try:
            cdf = self._cdfs[i] = choice_cdf(self._probs[i])
        except ValueError as exc:
            raise AgentError(
                f"{self.name}: cannot sample parameter {self.space.names[i]!r}: {exc}"
            ) from None
        return cdf

    def observe(self, action: Mapping[str, Any], fitness: float,
                metrics: Mapping[str, float]) -> None:
        self._batch.append((self.space.encode(action), float(fitness)))
        if len(self._batch) >= self.batch_size:
            self._update()
            self._batch = []

    # -- policy-gradient updates -----------------------------------------------------------

    def _advantages(self) -> np.ndarray:
        f = np.array([fit for __, fit in self._batch])
        std = f.std()
        if std < 1e-12:
            return np.zeros_like(f)
        return (f - f.mean()) / std

    def _entropy_grad(self, probs: List[np.ndarray]) -> np.ndarray:
        """d(sum of per-dim entropies)/d(logits)."""
        g = np.zeros(int(self._offsets[-1]))
        for i, p in enumerate(probs):
            h = -(p * np.log(p + 1e-12)).sum()
            g[self._offsets[i]: self._offsets[i + 1]] = -p * (np.log(p + 1e-12) + h)
        return g

    def _update(self) -> None:
        adv = self._advantages()
        if self.algo == "reinforce":
            self._update_once(adv, old_log_probs=None)
        else:
            logits, __ = self.net.forward()
            probs = self._dim_probs(logits)
            old_lp = np.array(
                [self._log_prob(probs, idx) for idx, __ in self._batch]
            )
            for __ in range(self.ppo_epochs):
                self._update_once(adv, old_log_probs=old_lp)
        self.updates += 1
        self._probs = None

    def _update_once(self, adv: np.ndarray, old_log_probs) -> None:
        logits, h = self.net.forward()
        probs = self._dim_probs(logits)
        n = len(self._batch)
        g_logits = np.zeros_like(logits)
        # One full-length d(log pi)/d(logits) per sample: -p, plus 1.0 at
        # the sample's index in each dimension. Adding whole vectors in
        # sample order keeps each element's float ops and their order,
        # which the parity tests hold to the per-dimension original.
        neg_p = -np.concatenate(probs)
        starts = self._offsets[:-1]

        for s, (indices, __) in enumerate(self._batch):
            if old_log_probs is None:
                weight = adv[s]
            else:
                new_lp = self._log_prob(probs, indices)
                ratio = float(np.exp(np.clip(new_lp - old_log_probs[s], -20, 20)))
                clipped = ratio < (1 - self.clip_eps) if adv[s] < 0 else ratio > (1 + self.clip_eps)
                weight = 0.0 if clipped else adv[s] * ratio
            if weight == 0.0:
                continue
            g = neg_p.copy()
            g[starts + indices] += 1.0
            g_logits += weight * g

        g_logits /= n
        g_logits += self.entropy_coef * self._entropy_grad(probs)
        self.opt.step(self.net.backward(g_logits, h))

    # -- introspection --------------------------------------------------------------------

    def policy_entropy(self) -> float:
        """Mean normalized per-dimension entropy (1 = uniform policy)."""
        logits, __ = self.net.forward()
        probs = self._dim_probs(logits)
        vals = []
        for p in probs:
            if len(p) > 1:
                vals.append(-(p * np.log(p + 1e-12)).sum() / np.log(len(p)))
        return float(np.mean(vals)) if vals else 0.0
