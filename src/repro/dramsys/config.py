"""Memory controller configuration — the DRAMGym action space.

These are the Fig. 3 / Table 4 parameters of the paper: page policy,
scheduler, scheduler buffer organization, request buffer size, response
queue policy, refresh policy, refresh postpone/pull-in elasticity,
arbiter, and the maximum number of in-flight transactions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.core.errors import SimulationError
from repro.core.spaces import Categorical, CompositeSpace, Discrete

__all__ = [
    "PAGE_POLICIES",
    "SCHEDULERS",
    "SCHEDULER_BUFFERS",
    "RESP_QUEUE_POLICIES",
    "REFRESH_POLICIES",
    "ARBITERS",
    "ControllerConfig",
    "controller_space",
]

#: Row-buffer management policies (DRAMSys naming).
PAGE_POLICIES = ("Open", "OpenAdaptive", "Closed", "ClosedAdaptive")

#: Command scheduling policies. ``FrFcFsGrp`` is FR-FCFS with read/write
#: grouping to reduce data-bus turnarounds.
SCHEDULERS = ("Fifo", "FrFcFs", "FrFcFsGrp")

#: Organization of the scheduler's request storage.
SCHEDULER_BUFFERS = ("Bankwise", "ReadWrite", "Shared")

#: Response queue release order.
RESP_QUEUE_POLICIES = ("Fifo", "Reorder")

#: Refresh granularity: all banks at once, one bank at a time, or pairs.
REFRESH_POLICIES = ("AllBank", "PerBank", "SameBank")

#: Front-end arbiter between the request stream and the scheduler.
ARBITERS = ("Fifo", "Reorder")


@dataclass(frozen=True)
class ControllerConfig:
    """One memory controller design point."""

    page_policy: str = "Open"
    scheduler: str = "FrFcFs"
    scheduler_buffer: str = "Shared"
    request_buffer_size: int = 8
    resp_queue_policy: str = "Reorder"
    refresh_policy: str = "AllBank"
    refresh_max_postponed: int = 4
    refresh_max_pulledin: int = 4
    arbiter: str = "Reorder"
    max_active_transactions: int = 16

    def __post_init__(self) -> None:
        def check(value: str, options: tuple, label: str) -> None:
            if value not in options:
                raise SimulationError(f"{label} {value!r} not in {options}")

        check(self.page_policy, PAGE_POLICIES, "page_policy")
        check(self.scheduler, SCHEDULERS, "scheduler")
        check(self.scheduler_buffer, SCHEDULER_BUFFERS, "scheduler_buffer")
        check(self.resp_queue_policy, RESP_QUEUE_POLICIES, "resp_queue_policy")
        check(self.refresh_policy, REFRESH_POLICIES, "refresh_policy")
        check(self.arbiter, ARBITERS, "arbiter")
        # counts are ints, not floats or bools: the simulator indexes
        # with the in-flight cap, and a bool buffer size is a buffer of one
        for name, low in (
            ("request_buffer_size", 1),
            ("refresh_max_postponed", 0),
            ("refresh_max_pulledin", 0),
            ("max_active_transactions", 1),
        ):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < low:
                raise SimulationError(f"{name} must be an integer >= {low}, got {value!r}")

    @classmethod
    def from_action(cls, action: Mapping[str, Any]) -> "ControllerConfig":
        """Build a config from a DRAMGym action dict (Fig. 3 names)."""
        return cls(
            page_policy=action["PagePolicy"],
            scheduler=action["Scheduler"],
            scheduler_buffer=action["SchedulerBuffer"],
            request_buffer_size=int(action["RequestBufferSize"]),
            resp_queue_policy=action["RespQueue"],
            refresh_policy=action["RefreshPolicy"],
            refresh_max_postponed=int(action["RefreshMaxPostponed"]),
            refresh_max_pulledin=int(action["RefreshMaxPulledin"]),
            arbiter=action["Arbiter"],
            max_active_transactions=int(action["MaxActiveTransactions"]),
        )

    def to_action(self) -> Dict[str, Any]:
        """Inverse of :meth:`from_action`."""
        return {
            "PagePolicy": self.page_policy,
            "Scheduler": self.scheduler,
            "SchedulerBuffer": self.scheduler_buffer,
            "RequestBufferSize": self.request_buffer_size,
            "RespQueue": self.resp_queue_policy,
            "RefreshPolicy": self.refresh_policy,
            "RefreshMaxPostponed": self.refresh_max_postponed,
            "RefreshMaxPulledin": self.refresh_max_pulledin,
            "Arbiter": self.arbiter,
            "MaxActiveTransactions": self.max_active_transactions,
        }


def controller_space() -> CompositeSpace:
    """The DRAMGym action space (paper Fig. 3, ~1.9e7 design points in the
    paper's full granularity; this grid keeps every axis and every Table 4
    value)."""
    return CompositeSpace(
        [
            Categorical("PagePolicy", PAGE_POLICIES),
            Categorical("Scheduler", SCHEDULERS),
            Categorical("SchedulerBuffer", SCHEDULER_BUFFERS),
            Discrete("RequestBufferSize", low=1, high=8, step=1),
            Categorical("RespQueue", RESP_QUEUE_POLICIES),
            Categorical("RefreshPolicy", REFRESH_POLICIES),
            Discrete("RefreshMaxPostponed", low=1, high=8, step=1),
            Discrete("RefreshMaxPulledin", low=1, high=8, step=1),
            Categorical("Arbiter", ARBITERS),
            Discrete.pow2("MaxActiveTransactions", 1, 128),
        ]
    )
