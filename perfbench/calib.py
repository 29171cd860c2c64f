"""Machine-speed calibration for the end-to-end timings.

The benchmark runs on shared machines whose speed drifts by tens of
percent over seconds to minutes, which would swamp the differences a
change makes. So ``run.py`` times a short fixed pure-Python kernel
about every ``SAMPLE_GAP_S`` while a round runs (before env steps,
trials and proxy tree fits) and scales the round's measured time by
how fast the kernel
ran: a time is reported in *reference seconds*, the seconds it would
have taken on a machine where the kernel takes ``REFERENCE_KERNEL_S``
on average. The kernel uses none of the program's code, so a change to
the program cannot move it; it only tracks the machine. The mean, not
the median, of the kernel times is used: the machine switches between
fast and slow phases, and the mean weighs them as the workload feels
them.

The kernel is an event-queue loop over small objects plus a string
sort: the interpreter work (attribute access, calls, heap and dict
operations, allocation) that dominates the simulators and agents.
"""

from __future__ import annotations

import gc
import heapq
import statistics
import time
from typing import List, Tuple

#: Mean kernel duration on the machine the round counts were sized on.
REFERENCE_KERNEL_S = 0.0016
#: A hooked call starts with a calibration sample when the last one is
#: older than this.
SAMPLE_GAP_S = 0.1


class _Event:
    __slots__ = ("t", "k", "v")

    def __init__(self, t: int, k: int, v: float) -> None:
        self.t = t
        self.k = k
        self.v = v

    def __lt__(self, other: "_Event") -> bool:
        return self.t < other.t


def kernel() -> float:
    """Run the fixed kernel once; returns its duration in seconds.

    The garbage collector is paused while it runs: otherwise the
    kernel's allocations would trigger collections whose cost grows
    with the program's heap, and the kernel would time the program.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _kernel()
    finally:
        if enabled:
            gc.enable()


def _kernel() -> float:
    start = time.perf_counter()
    heap: List[_Event] = []
    totals = {}
    acc = 0.0
    for i in range(700):
        heapq.heappush(heap, _Event((i * 7919) % 1000, i % 13, i * 0.5))
        if len(heap) > 64:
            event = heapq.heappop(heap)
            totals[event.k] = totals.get(event.k, 0.0) + event.v
            acc += event.t * 1e-3
    sorted(str(x) for x in range(250))
    return time.perf_counter() - start


class SpeedMeter:
    """Calibration samples taken during a run, and the scaling they
    imply for the intervals around them."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []  # (taken at, duration)
        #: Seconds spent calibrating since the last :meth:`take_inside`.
        self.inside = 0.0

    def sample(self) -> None:
        duration = kernel()
        self.samples.append((time.perf_counter(), duration))

    def maybe_sample(self) -> None:
        """Sample if the last sample is older than ``SAMPLE_GAP_S`` (the
        hook before steps, trials and tree fits); the time it takes is
        counted in :attr:`inside` so the caller can take it out of its
        interval."""
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= SAMPLE_GAP_S:
            start = time.perf_counter()
            self.sample()
            self.inside += time.perf_counter() - start

    def take_inside(self) -> float:
        inside, self.inside = self.inside, 0.0
        return inside

    def factor(self, since: int) -> float:
        """Reference seconds per measured second over the samples from
        index ``since`` on: the reference kernel time over their mean."""
        durations = [d for _, d in self.samples[since:]]
        return REFERENCE_KERNEL_S / statistics.fmean(durations)
