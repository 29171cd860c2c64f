"""Task dependency graphs — the FARSI workload representation.

FARSI models an AR/VR application as a DAG of tasks; each task carries a
compute demand (mega-operations) and a *kind* that determines which IPs
can accelerate it; each edge carries the data volume (KiB) the consumer
reads from the producer.

A graph hands the simulator a :class:`GraphPlan`: its tasks in
topological order with index-addressed predecessors. The plan is built
on first use and dropped by every ``add_task``/``add_edge``, so a call
that follows a change plans again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.errors import SimulationError

__all__ = ["Task", "TaskGraph", "GraphPlan", "TASK_KINDS"]

#: Task kinds; accelerator IPs advertise speedups per kind.
TASK_KINDS = ("generic", "dsp", "imaging", "crypto")


@dataclass(frozen=True)
class Task:
    """One node of the application DAG."""

    name: str
    mops: float                 # compute demand in mega-operations
    kind: str = "generic"

    def __post_init__(self) -> None:
        if not (math.isfinite(self.mops) and self.mops > 0):
            raise SimulationError(
                f"task {self.name!r} needs a finite mops > 0, got {self.mops!r}"
            )
        if self.kind not in TASK_KINDS:
            raise SimulationError(
                f"task {self.name!r} has unknown kind {self.kind!r}; "
                f"valid: {TASK_KINDS}"
            )


class GraphPlan(NamedTuple):
    """A task graph's structure, flattened for the list scheduler.

    Entry ``i`` of each tuple describes the ``i``-th task in
    ``graph.topological_order()``; ``preds[i]`` lists its producers as
    ``(index, kib)`` pairs in ``graph.predecessors`` order.
    """

    names: Tuple[str, ...]
    mops: Tuple[float, ...]
    kinds: Tuple[str, ...]
    preds: Tuple[Tuple[Tuple[int, float], ...], ...]


class TaskGraph:
    """A named DAG of :class:`Task` nodes with data-volume edges."""

    def __init__(self, name: str):
        self.name = name
        self._tasks: Dict[str, Task] = {}
        self._succ: Dict[str, Dict[str, float]] = {}
        self._pred: Dict[str, Dict[str, float]] = {}
        self._plan: Optional[GraphPlan] = None

    # -- construction -------------------------------------------------------------

    def add_task(self, task: Task) -> None:
        if task.name in self._tasks:
            raise SimulationError(f"duplicate task {task.name!r}")
        self._plan = None
        self._tasks[task.name] = task
        self._succ[task.name] = {}
        self._pred[task.name] = {}

    def add_edge(self, producer: str, consumer: str, kib: float) -> None:
        """Declare that ``consumer`` reads ``kib`` KiB from ``producer``.

        Adding an edge again keeps its place and takes the new volume.
        """
        for name in (producer, consumer):
            if name not in self._tasks:
                raise SimulationError(f"unknown task {name!r}")
        if not (math.isfinite(kib) and kib >= 0):
            raise SimulationError(
                f"edge data volume must be finite and >= 0, got {kib!r}"
            )
        self._plan = None
        self._succ[producer][consumer] = self._pred[consumer][producer] = float(kib)
        if len(self._sorted_names()) < len(self._tasks):
            # Only a new edge can close a cycle, so this leaves no trace.
            del self._succ[producer][consumer], self._pred[consumer][producer]
            raise SimulationError(
                f"edge {producer!r}->{consumer!r} would create a cycle"
            )

    # -- queries ---------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._tasks)

    @property
    def tasks(self) -> List[Task]:
        return list(self._tasks.values())

    def task(self, name: str) -> Task:
        try:
            return self._tasks[name]
        except KeyError:
            raise SimulationError(f"unknown task {name!r}") from None

    def _sorted_names(self) -> List[str]:
        """Task names in topological order by Kahn's algorithm, one
        generation at a time: the tasks without producers in insertion
        order, then each generation's newly ready consumers in edge
        insertion order. A task on a cycle is never reached."""
        waiting = {name: len(preds) for name, preds in self._pred.items() if preds}
        generation = [name for name, preds in self._pred.items() if not preds]
        order: List[str] = []
        while generation:
            order += generation
            ready = []
            for name in generation:
                for child in self._succ[name]:
                    waiting[child] -= 1
                    if not waiting[child]:
                        ready.append(child)
            generation = ready
        return order

    def topological_order(self) -> List[Task]:
        return [self._tasks[n] for n in self._sorted_names()]

    def predecessors(self, name: str) -> List[Tuple[Task, float]]:
        """(producer task, KiB transferred) pairs feeding ``name``."""
        self.task(name)  # an unknown name raises SimulationError
        return [(self._tasks[p], kib) for p, kib in self._pred[name].items()]

    def plan(self) -> GraphPlan:
        """The graph's :class:`GraphPlan`, built on first use after any
        change."""
        plan = self._plan
        if plan is None:
            order = self._sorted_names()
            index = {name: i for i, name in enumerate(order)}
            tasks = [self._tasks[name] for name in order]
            plan = GraphPlan(
                names=tuple(order),
                mops=tuple(t.mops for t in tasks),
                kinds=tuple(t.kind for t in tasks),
                preds=tuple(
                    tuple((index[p], kib) for p, kib in self._pred[name].items())
                    for name in order
                ),
            )
            # Published whole: threads that share a graph may each
            # build it, and both builds are equal.
            self._plan = plan
        return plan

    def edges(self) -> Iterable[Tuple[str, str, float]]:
        for u, consumers in self._succ.items():
            for v, kib in consumers.items():
                yield u, v, kib

    @property
    def total_mops(self) -> float:
        return sum(t.mops for t in self._tasks.values())

    @property
    def total_traffic_kib(self) -> float:
        return sum(kib for _, _, kib in self.edges())

    def critical_path_mops(self) -> float:
        """Compute demand along the heaviest dependency chain — a lower
        bound on serialized work regardless of PE count."""
        best: Dict[str, float] = {}
        for task in self.topological_order():
            preds = [best[p.name] for p, _ in self.predecessors(task.name)]
            best[task.name] = task.mops + (max(preds) if preds else 0.0)
        return max(best.values()) if best else 0.0

    def __repr__(self) -> str:
        return (
            f"TaskGraph({self.name!r}, tasks={len(self)}, "
            f"mops={self.total_mops:.0f}, traffic={self.total_traffic_kib:.0f}KiB)"
        )
