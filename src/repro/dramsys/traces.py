"""Synthetic memory traces — the DRAMGym workloads.

DRAMSys ships trace files (streaming, random access, cloud workloads);
the paper additionally uses a pointer-chasing pattern for the Table 4
experiment. Since those artifacts are not redistributable, we generate
traces with the same access-pattern taxonomy:

- ``stream``         — sequential cache lines, high row locality.
- ``random``         — uniform random lines, frequent row conflicts.
- ``cloud-1``        — read-heavy, zipf-like hot set + background scans.
- ``cloud-2``        — write-heavier, larger footprint, bursty arrivals.
- ``pointer_chase``  — serially dependent random reads, long gaps.

Each generator is fully determined by its seed, so experiments are
reproducible bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

import numpy as np

from repro.core.errors import SimulationError
from repro.core.spaces import choice_cdf, choice_index

__all__ = ["MemoryRequest", "Trace", "generate_trace", "TRACE_NAMES"]

LINE = 64  # bytes per request


@dataclass(frozen=True)
class MemoryRequest:
    """One memory transaction as seen by the controller front-end."""

    arrival_ns: float
    address: int
    is_write: bool


@dataclass(frozen=True)
class Trace:
    """A named, immutable sequence of requests."""

    name: str
    requests: tuple

    def __len__(self) -> int:
        return len(self.requests)

    @property
    def duration_ns(self) -> float:
        return self.requests[-1].arrival_ns if self.requests else 0.0

    @property
    def write_fraction(self) -> float:
        if not self.requests:
            return 0.0
        return sum(r.is_write for r in self.requests) / len(self.requests)


def _sorted_requests(rows: List[tuple]) -> tuple:
    rows.sort(key=lambda r: r[0])
    return tuple(MemoryRequest(t, a, w) for t, a, w in rows)


def _stream(n: int, rng: np.random.Generator) -> tuple:
    """Sequential lines at a tight arrival rate; 20% writes (copy-like)."""
    base = int(rng.integers(0, 1 << 20)) * LINE
    t = 0.0
    rows = []
    for i in range(n):
        t += float(rng.exponential(6.0))
        rows.append((t, base + i * LINE, bool(rng.random() < 0.2)))
    return _sorted_requests(rows)


def _random(n: int, rng: np.random.Generator) -> tuple:
    """Uniform random lines over a 256 MiB footprint; 30% writes."""
    footprint_lines = (256 << 20) // LINE
    t = 0.0
    rows = []
    for _ in range(n):
        t += float(rng.exponential(12.0))
        addr = int(rng.integers(0, footprint_lines)) * LINE
        rows.append((t, addr, bool(rng.random() < 0.3)))
    return _sorted_requests(rows)


def _zipf_hot_set(rng: np.random.Generator, n_hot: int) -> np.ndarray:
    footprint_lines = (512 << 20) // LINE
    return rng.integers(0, footprint_lines, size=n_hot)


def _cloud(n: int, rng: np.random.Generator, write_frac: float, hot_frac: float) -> tuple:
    """Hot-set reuse plus background scans with bursty arrivals."""
    hot = _zipf_hot_set(rng, 256)
    # zipf-ish popularity over the hot set
    ranks = np.arange(1, len(hot) + 1, dtype=np.float64)
    popularity = 1.0 / ranks
    popularity /= popularity.sum()
    # the draws of rng.choice(hot, p=popularity), from its CDF built once
    hot_lines, hot_cdf = hot.tolist(), choice_cdf(popularity)
    t = 0.0
    scan_line = int(rng.integers(0, 1 << 20))
    rows = []
    for _ in range(n):
        # bursts: occasionally a long gap, otherwise back-to-back
        gap = float(rng.exponential(4.0)) if rng.random() > 0.05 else float(rng.exponential(120.0))
        t += gap
        if rng.random() < hot_frac:
            line = hot_lines[choice_index(hot_cdf, rng)]
        else:
            scan_line += 1
            line = scan_line
        rows.append((t, line * LINE, bool(rng.random() < write_frac)))
    return _sorted_requests(rows)


def _pointer_chase(n: int, rng: np.random.Generator) -> tuple:
    """Serially dependent loads: each arrival waits out the previous miss."""
    footprint_lines = (1 << 30) // LINE
    t = 0.0
    rows = []
    for _ in range(n):
        # dependent access: next request cannot issue before the previous
        # one returns, so arrivals are spaced by a full miss latency.
        t += 60.0 + float(rng.exponential(25.0))
        addr = int(rng.integers(0, footprint_lines)) * LINE
        rows.append((t, addr, False))
    return _sorted_requests(rows)


_GENERATORS: Dict[str, Callable[[int, np.random.Generator], tuple]] = {
    "stream": _stream,
    "random": _random,
    "cloud-1": lambda n, rng: _cloud(n, rng, write_frac=0.15, hot_frac=0.7),
    "cloud-2": lambda n, rng: _cloud(n, rng, write_frac=0.45, hot_frac=0.45),
    "pointer_chase": _pointer_chase,
}

#: Names accepted by :func:`generate_trace` (and the DRAMGym ``workload``).
TRACE_NAMES = tuple(_GENERATORS)


def generate_trace(name: str, n_requests: int = 2000, seed: int = 0) -> Trace:
    """Generate a named workload trace.

    Parameters
    ----------
    name:
        One of :data:`TRACE_NAMES`.
    n_requests:
        Trace length; the paper's DSE costs are aggregate, so a few
        thousand requests suffice for stable statistics.
    seed:
        Generator seed; the same (name, n, seed) always yields the same
        trace.
    """
    if name not in _GENERATORS:
        raise SimulationError(f"unknown trace {name!r}; have {sorted(_GENERATORS)}")
    if n_requests < 1:
        raise SimulationError("n_requests must be >= 1")
    rng = np.random.default_rng(seed)
    return Trace(name=name, requests=_GENERATORS[name](n_requests, rng))
