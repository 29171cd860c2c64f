"""The RL and ACO agents' original sampling code, kept as the parity
reference.

``repro.agents.rl`` and ``repro.agents.aco`` draw each parameter from a
CDF cached until the policy next moves, and RL's gradient adds one
full-length vector per sample. This module holds the code they
replaced, so ``tests/test_agents_parity.py`` can require that both give
the same proposals, RNG states, weights and trails. ``propose`` and
``_update_once`` are copied unchanged; each reference agent is the
current agent with those methods swapped back in.
"""

from __future__ import annotations

from typing import Any, Dict

import numpy as np

from repro.agents.aco import ACOAgent
from repro.agents.rl import RLAgent


class ReferenceRLAgent(RLAgent):
    """``RLAgent`` with a forward pass and ``rng.choice`` per proposal."""

    def propose(self) -> Dict[str, Any]:
        logits, __ = self.net.forward()
        probs = self._dim_probs(logits)
        indices = np.array(
            [self.rng.choice(len(p), p=p) for p in probs], dtype=np.int64
        )
        return self.space.decode(indices)

    def _update_once(self, adv: np.ndarray, old_log_probs) -> None:
        logits, h = self.net.forward()
        probs = self._dim_probs(logits)
        n = len(self._batch)
        g_logits = np.zeros_like(logits)

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
            for i, p in enumerate(probs):
                lo, hi = self._offsets[i], self._offsets[i + 1]
                g = -p.copy()
                g[indices[i]] += 1.0
                g_logits[lo:hi] += weight * g

        g_logits /= n
        g_logits += self.entropy_coef * self._entropy_grad(probs)
        self.opt.step(self.net.backward(g_logits, h))


class ReferenceACOAgent(ACOAgent):
    """``ACOAgent`` recomputing ``trail ** alpha`` for every draw."""

    def propose(self) -> Dict[str, Any]:
        indices = np.empty(len(self._trails), dtype=np.int64)
        for i, trail in enumerate(self._trails):
            if self.rng.random() < self.greediness:
                indices[i] = int(np.argmax(trail))
            else:
                weights = trail ** self.alpha
                weights = weights / weights.sum()
                indices[i] = int(self.rng.choice(len(trail), p=weights))
        return self.space.decode(indices)
