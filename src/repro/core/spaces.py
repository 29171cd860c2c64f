"""Parameter spaces for architecture design space exploration.

The ArchGym interface (paper §3.3, Fig. 3) exposes each environment's
tunable architecture parameters as a mixed categorical/numeric space.
Every agent — whether it reasons over integer indices (GA genomes, ACO
pheromone tables), unit-interval vectors (Bayesian optimization, RL
policies) or raw parameter dictionaries (random walker) — interacts with
the *same* space object, which converts between the three
representations:

``dict``  <->  ``index vector`` (one integer per dimension)
          <->  ``unit vector``  (one float in [0, 1] per dimension)

The design mirrors Fig. 3 of the paper: numeric parameters are specified
in ``(min, max, step)`` tuple format and categorical parameters as an
explicit choice list. Every parameter is therefore a finite, ordered
set of values, and every codec is lossless on them: for an action ``a``
of listed values, ``decode(encode(a))`` and
``from_unit_vector(to_unit_vector(a))`` both return ``a``.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Sequence, Tuple

import numpy as np

from repro.core.errors import SpaceError

__all__ = [
    "Parameter",
    "Categorical",
    "Discrete",
    "CompositeSpace",
    "choice_cdf",
    "choice_index",
]


class Parameter:
    """A single named design parameter.

    Subclasses implement a finite set of admissible values, ordered so
    that each value has a stable integer index. Agents that operate on
    indices or unit floats use :meth:`to_index`, :meth:`from_index`,
    :meth:`to_unit`, :meth:`from_unit`.
    """

    name: str

    @property
    def cardinality(self) -> int:
        """Number of admissible values."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator) -> Any:
        """Draw a uniformly random admissible value."""
        return self.from_index(int(rng.integers(self.cardinality)))

    def contains(self, value: Any) -> bool:
        """Return True if ``value`` is admissible for this parameter."""
        raise NotImplementedError

    def to_index(self, value: Any) -> int:
        """Map an admissible value to its ordinal index."""
        raise NotImplementedError

    def from_index(self, index: int) -> Any:
        """Map an ordinal index back to the parameter value."""
        raise NotImplementedError

    def to_unit(self, value: Any) -> float:
        """Map an admissible value to the unit interval [0, 1].

        The mapping places the ``k``-th of ``n`` values at the *center* of
        the ``k``-th of ``n`` equal bins, so that :meth:`from_unit` of any
        float in that bin recovers the value (round-trip stability).
        """
        n = self.cardinality
        if n == 1:
            return 0.5
        return (self.to_index(value) + 0.5) / n

    def from_unit(self, u: float) -> Any:
        """Map a float in [0, 1] to the nearest admissible value."""
        n = self.cardinality
        u = min(max(float(u), 0.0), 1.0)
        index = min(int(u * n), n - 1)
        return self.from_index(index)

    def values(self) -> Iterator[Any]:
        """Iterate over all admissible values in index order."""
        for i in range(self.cardinality):
            yield self.from_index(i)


#: ``Generator.choice``'s tolerance on ``sum(p) - 1`` for float64 ``p``.
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


def choice_cdf(p: np.ndarray) -> List[float]:
    """The CDF ``Generator.choice(len(p), p=p)`` draws from, as a list.

    ``p`` (float64) is checked as ``choice`` checks it — a Kahan sum
    that is not NaN, no negative entry, the sum within √eps of 1 — and a
    ``p`` that ``choice`` rejects raises the same ``ValueError``. Build
    it once per distribution and draw from it with
    :func:`choice_index`, as often as the distribution holds.
    """
    p = np.asarray(p, dtype=np.float64)
    values = p.tolist()
    total, carry = values[0], 0.0
    for x in values[1:]:
        y = x - carry
        t = total + y
        carry = (t - total) - y
        total = t
    if math.isnan(total):
        raise ValueError("Probabilities contain NaN")
    if (p < 0).any():
        raise ValueError("Probabilities are not non-negative")
    if abs(total - 1.0) > _CHOICE_ATOL:
        raise ValueError("Probabilities do not sum to 1")
    cdf = p.cumsum()
    cdf /= cdf[-1]
    return cdf.tolist()


def choice_index(cdf: List[float], rng: np.random.Generator) -> int:
    """Draw what ``rng.choice(len(p), p=p)`` draws, given
    ``cdf = choice_cdf(p)``: ``choice`` maps one ``rng.random()``
    through ``cdf.searchsorted(u, side="right")``, so this returns the
    same index and advances ``rng`` the same way."""
    return bisect_right(cdf, rng.random())


@dataclass(frozen=True)
class Categorical(Parameter):
    """A parameter drawn from an explicit, ordered list of choices.

    Example: the DRAM controller page policy
    ``Categorical("PagePolicy", ("Open", "OpenAdaptive", "Closed",
    "ClosedAdaptive"))``.
    """

    name: str
    choices: Tuple[Any, ...]

    def __post_init__(self) -> None:
        if len(self.choices) == 0:
            raise SpaceError(f"categorical parameter {self.name!r} has no choices")
        if len(set(map(repr, self.choices))) != len(self.choices):
            raise SpaceError(f"categorical parameter {self.name!r} has duplicate choices")

    @property
    def cardinality(self) -> int:
        return len(self.choices)

    def contains(self, value: Any) -> bool:
        return value in self.choices

    def to_index(self, value: Any) -> int:
        try:
            return self.choices.index(value)
        except ValueError:
            raise SpaceError(
                f"value {value!r} is not a choice of parameter {self.name!r}; "
                f"choices are {self.choices!r}"
            ) from None

    def from_index(self, index: int) -> Any:
        if not 0 <= index < len(self.choices):
            raise SpaceError(
                f"index {index} out of range for parameter {self.name!r} "
                f"with {len(self.choices)} choices"
            )
        return self.choices[index]


@dataclass(frozen=True)
class Discrete(Parameter):
    """A numeric parameter on the grid ``low, low+step, ..., <= high``.

    This is the paper's ``(min, max, step)`` tuple format from Fig. 3.
    ``log2`` grids (1, 2, 4, 8, ...) common in buffer sizing are expressed
    by ``Discrete.pow2(name, low, high)``.
    """

    name: str
    low: float
    high: float
    step: float = 1.0
    integer: bool = True

    def __post_init__(self) -> None:
        if self.step <= 0:
            raise SpaceError(f"parameter {self.name!r} needs step > 0, got {self.step}")
        if self.high < self.low:
            raise SpaceError(
                f"parameter {self.name!r} needs high >= low, got "
                f"[{self.low}, {self.high}]"
            )

    @classmethod
    def pow2(cls, name: str, low: int, high: int) -> "Categorical":
        """A power-of-two grid expressed as a categorical over 2**k values."""
        if low <= 0 or high < low:
            raise SpaceError(f"pow2 parameter {name!r} needs 0 < low <= high")
        values = []
        v = low
        while v <= high:
            values.append(v)
            v *= 2
        return Categorical(name, tuple(values))

    @property
    def cardinality(self) -> int:
        return int(math.floor((self.high - self.low) / self.step + 1e-9)) + 1

    def contains(self, value: Any) -> bool:
        if not isinstance(value, (int, float, np.integer, np.floating)):
            return False
        if value < self.low - 1e-9 or value > self.high + 1e-9:
            return False
        k = (float(value) - self.low) / self.step
        return abs(k - round(k)) < 1e-6

    def to_index(self, value: Any) -> int:
        if not self.contains(value):
            raise SpaceError(
                f"value {value!r} is not on the grid of parameter {self.name!r} "
                f"(low={self.low}, high={self.high}, step={self.step})"
            )
        return int(round((float(value) - self.low) / self.step))

    def from_index(self, index: int) -> Any:
        if not 0 <= index < self.cardinality:
            raise SpaceError(
                f"index {index} out of range for parameter {self.name!r} "
                f"with cardinality {self.cardinality}"
            )
        value = self.low + index * self.step
        if self.integer:
            return int(round(value))
        # round away float-step accumulation noise (0.6000000000000001)
        return float(round(value, 10))


@dataclass
class CompositeSpace:
    """An ordered collection of named parameters — one DSE action space.

    An *action* is a ``dict`` mapping each parameter name to an admissible
    value. The composite provides the vector codecs every agent family
    relies on (Table 2 of the paper):

    - :meth:`encode` / :meth:`decode` — integer index vectors (GA, ACO)
    - :meth:`to_unit_vector` / :meth:`from_unit_vector` — floats in [0,1]
      (BO, RL)
    - :meth:`sample` / :meth:`sample_batch` — uniform random actions
      (random walker; BO and offline candidate pools)
    - :meth:`neighbors` — single-parameter perturbations (local search)
    """

    parameters: List[Parameter] = field(default_factory=list)

    def __post_init__(self) -> None:
        names = [p.name for p in self.parameters]
        if len(set(names)) != len(names):
            raise SpaceError(f"duplicate parameter names in space: {names}")
        self._by_name = {p.name: p for p in self.parameters}

    # -- basic introspection -------------------------------------------------

    @property
    def names(self) -> List[str]:
        return [p.name for p in self.parameters]

    @property
    def dimension(self) -> int:
        return len(self.parameters)

    @property
    def cardinality(self) -> float:
        """Total number of design points (may be astronomically large)."""
        total = 1.0
        for p in self.parameters:
            total *= p.cardinality
        return total

    @property
    def cardinalities(self) -> List[int]:
        return [p.cardinality for p in self.parameters]

    def __len__(self) -> int:
        return len(self.parameters)

    def __iter__(self) -> Iterator[Parameter]:
        return iter(self.parameters)

    def __getitem__(self, name: str) -> Parameter:
        try:
            return self._by_name[name]
        except KeyError:
            raise SpaceError(f"unknown parameter {name!r}; have {self.names}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    # -- membership ----------------------------------------------------------

    def contains(self, action: Mapping[str, Any]) -> bool:
        """Return True if ``action`` assigns an admissible value to every
        parameter (extra keys make the action invalid)."""
        if set(action.keys()) != set(self._by_name.keys()):
            return False
        return all(self._by_name[k].contains(v) for k, v in action.items())

    def validate(self, action: Mapping[str, Any]) -> None:
        """Raise :class:`SpaceError` describing why ``action`` is invalid."""
        missing = set(self._by_name) - set(action)
        if missing:
            raise SpaceError(f"action missing parameters: {sorted(missing)}")
        extra = set(action) - set(self._by_name)
        if extra:
            raise SpaceError(f"action has unknown parameters: {sorted(extra)}")
        for k, v in action.items():
            if not self._by_name[k].contains(v):
                raise SpaceError(f"value {v!r} invalid for parameter {k!r}")

    # -- sampling ------------------------------------------------------------

    def sample(self, rng: np.random.Generator) -> Dict[str, Any]:
        """Draw a uniformly random action."""
        return {p.name: p.sample(rng) for p in self.parameters}

    def sample_batch(self, rng: np.random.Generator, n: int) -> List[Dict[str, Any]]:
        """Draw ``n`` actions: what ``n`` calls of :meth:`sample` draw,
        leaving ``rng`` where they leave it (agents' candidate pools)."""
        return [self.sample(rng) for _ in range(n)]

    # -- codecs ---------------------------------------------------------------

    def encode(self, action: Mapping[str, Any]) -> np.ndarray:
        """Action dict -> integer index vector (dtype int64)."""
        return np.array(
            [p.to_index(action[p.name]) for p in self.parameters], dtype=np.int64
        )

    def decode(self, indices: Sequence[int]) -> Dict[str, Any]:
        """Integer index vector -> action dict."""
        if len(indices) != len(self.parameters):
            raise SpaceError(
                f"index vector length {len(indices)} != space dimension {len(self.parameters)}"
            )
        return {
            p.name: p.from_index(int(i)) for p, i in zip(self.parameters, indices)
        }

    def to_unit_vector(self, action: Mapping[str, Any]) -> np.ndarray:
        """Action dict -> float vector in [0, 1]^d."""
        return np.array(
            [p.to_unit(action[p.name]) for p in self.parameters], dtype=np.float64
        )

    def from_unit_vector(self, u: Sequence[float]) -> Dict[str, Any]:
        """Float vector in [0, 1]^d -> action dict (snapping to the grid)."""
        if len(u) != len(self.parameters):
            raise SpaceError(
                f"unit vector length {len(u)} != space dimension {len(self.parameters)}"
            )
        return {p.name: p.from_unit(float(x)) for p, x in zip(self.parameters, u)}

    # -- local moves ----------------------------------------------------------

    def neighbors(
        self, action: Mapping[str, Any], rng: np.random.Generator, n: int = 1
    ) -> List[Dict[str, Any]]:
        """Return ``n`` neighbors of ``action``, each differing in exactly
        one randomly chosen parameter (set to a different admissible value
        when one exists)."""
        self.validate(action)
        out: List[Dict[str, Any]] = []
        for _ in range(n):
            neighbor = dict(action)
            p = self.parameters[int(rng.integers(len(self.parameters)))]
            if p.cardinality > 1:
                current = p.to_index(action[p.name])
                offset = 1 + int(rng.integers(p.cardinality - 1))
                neighbor[p.name] = p.from_index((current + offset) % p.cardinality)
            out.append(neighbor)
        return out
