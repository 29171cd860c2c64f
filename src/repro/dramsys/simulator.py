"""Transaction-level DRAM subsystem simulator (the DRAMSys stand-in).

The simulator executes a memory trace against one
:class:`~repro.dramsys.config.ControllerConfig` and a
:class:`~repro.dramsys.device.DramDevice`, producing the
``<latency, power, energy>`` observation of Table 3.

Modeled mechanisms — exactly the ones the controller parameters tune:

- per-bank row-buffer state machines (hit / miss / conflict timing with
  tRCD/tRP/tCL/tRC enforcement),
- page policies: open, closed, and their adaptive variants (speculative
  precharge driven by pending-queue lookahead),
- schedulers: FIFO, FR-FCFS (row hits first) and FR-FCFS-Grouped (row
  hits first, grouped by bus direction to avoid turnarounds),
- scheduler buffer organizations: shared pool, read/write queues with
  watermark-based write draining, and bankwise queues with round-robin
  bank selection,
- a shared data bus with read<->write turnaround penalties,
- refresh with postpone / pull-in elasticity at all-bank, same-bank and
  per-bank granularity,
- a front-end arbiter that bounds the scheduler's reorder window, an
  in-order or out-of-order response queue, and a cap on in-flight
  transactions,
- a DRAMPower-style energy model (per-command energies + state-dependent
  background power).
"""

from __future__ import annotations

import heapq
import math
from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.errors import SimulationError
from repro.dramsys.config import ControllerConfig
from repro.dramsys.device import DDR4_2400, DramDevice
from repro.dramsys.traces import Trace

__all__ = ["SimResult", "DramSimulator"]

#: One decoded request: ``(order, bank, row, is_write)``, where ``order``
#: is its index in the trace.
_Request = Tuple[int, int, int, bool]


@dataclass(frozen=True)
class SimResult:
    """Aggregate outcome of simulating one trace on one controller."""

    avg_latency_ns: float
    power_w: float
    energy_uj: float
    exec_time_ns: float
    bandwidth_gbps: float
    row_hits: int
    row_misses: int
    row_conflicts: int
    refreshes: int
    reads: int
    writes: int
    energy_breakdown_nj: Dict[str, float] = None  # act/rw/refresh/background

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses + self.row_conflicts
        return self.row_hits / total if total else 0.0

    def metrics(self) -> Dict[str, float]:
        """The DRAMGym observation dictionary."""
        return {
            "latency": self.avg_latency_ns,
            "power": self.power_w,
            "energy": self.energy_uj,
            "exec_time": self.exec_time_ns,
            "bandwidth": self.bandwidth_gbps,
            "row_hit_rate": self.row_hit_rate,
        }


class DramSimulator:
    """Simulates memory traces against controller design points.

    :meth:`simulate` can be invoked repeatedly (the DSE loop does exactly
    that). Between calls an instance keeps one thing: a memo of the last
    trace it decoded — each request's arrival time and
    ``(order, bank, row, is_write)`` — keyed by the identity of the trace
    and the device. :class:`~repro.dramsys.traces.Trace` is frozen, so the
    memo cannot go stale, and it is replaced as one attribute, so a
    concurrent call sees either the old entry or the new one.
    """

    def __init__(self, device: DramDevice = DDR4_2400):
        self.device = device
        self._decoded: Optional[tuple] = None  # (trace, device, arrivals, requests)

    # -- public API ---------------------------------------------------------------

    def simulate(self, config: ControllerConfig, trace: Trace) -> SimResult:
        """Run ``trace`` through a controller built from ``config``."""
        if len(trace) == 0:
            raise SimulationError("cannot simulate an empty trace")
        arrivals, requests = self._decode(trace)
        return _run(self.device, config, arrivals, requests)

    def _decode(self, trace: Trace) -> Tuple[Tuple[float, ...], Tuple[_Request, ...]]:
        """Arrival times and decoded requests of ``trace``, memoized.
        Raises :class:`SimulationError` for a non-finite arrival time."""
        device = self.device
        memo = self._decoded
        if memo is not None and memo[0] is trace and memo[1] is device:
            return memo[2], memo[3]
        arrivals = tuple(r.arrival_ns for r in trace.requests)
        for index, arrival in enumerate(arrivals):
            if not math.isfinite(arrival):  # the clock would never pass it
                raise SimulationError(
                    f"request {index} of trace {trace.name!r} arrives at "
                    f"{arrival}: arrival times must be finite"
                )
        requests = tuple(
            (order, *device.map_address(r.address), r.is_write)
            for order, r in enumerate(trace.requests)
        )
        self._decoded = (trace, device, arrivals, requests)
        return arrivals, requests


def _refresh(
    banks: tuple, at: float, first_bank: int, banks_per_op: int, duration: float
) -> int:
    """Execute one refresh operation at ``at``: precharge and black out
    ``banks_per_op`` banks, round-robin from ``first_bank``. ``banks`` is
    the per-bank ``(open_row, opened_since, open_time, blocked_until)``
    lists. Returns the first bank of the next operation."""
    open_row, opened_since, open_time, blocked_until = banks
    nbanks = len(open_row)
    for i in range(banks_per_op):
        b = (first_bank + i) % nbanks
        since = opened_since[b]
        if since is not None:   # refresh precharges the row
            open_time[b] += max(0.0, at - since)
            opened_since[b] = None
        open_row[b] = None
        blocked_until[b] = max(blocked_until[b], at + duration)
    return (first_bank + banks_per_op) % nbanks


def _run(
    device: DramDevice,
    cfg: ControllerConfig,
    arrivals: Tuple[float, ...],
    requests: Tuple[_Request, ...],
) -> SimResult:
    """One simulation execution. All mutable state is local; per-bank
    state lives in six flat lists indexed by bank. Beside the scheduler
    buffer, the ReadWrite and Bankwise organizations keep their views of
    it up to date where a request is admitted and where one is served:
    the reads and the writes, or each bank's requests plus the sorted
    banks that have any, each in buffer order. The scheduler so sees the
    same pool, in the same order, that filtering the whole buffer would
    give, without a filter per request served."""
    t, e, nbanks, n = device.timings, device.energy, device.banks, len(requests)
    trc, trcd, trp, tras = t.trc, t.trcd, t.trp, t.tras
    tcl, tcwd, twr, twtr, trtw = t.tcl, t.tcwd, t.twr, t.twtr, t.trtw
    burst_time = t.burst_time
    e_act, e_read, e_write = e.e_act, e.e_read, e.e_write

    # -- the configuration, resolved once per run ----------------------------------
    cap = cfg.request_buffer_size
    max_active = cfg.max_active_transactions
    max_postponed = cfg.refresh_max_postponed
    max_pulledin = cfg.refresh_max_pulledin
    fifo_scheduler = cfg.scheduler == "Fifo"
    grouped_scheduler = cfg.scheduler == "FrFcFsGrp"
    read_write_buffer = cfg.scheduler_buffer == "ReadWrite"
    bankwise_buffer = cfg.scheduler_buffer == "Bankwise"
    drain_stop = max(1, cap // 4)
    drain_start = max(1, (3 * cap) // 4)
    # Fifo arbiter: reordering restricted to the oldest half-window
    window = 0 if cfg.arbiter == "Reorder" else max(1, (cap + 1) // 2)
    close_pages = cfg.page_policy != "Open"
    close_always = cfg.page_policy == "Closed"
    release_in_order = cfg.resp_queue_policy != "Reorder"

    # granularity-specific refresh parameters: time between operations,
    # blackout and energy per operation, banks each operation blocks
    if cfg.refresh_policy == "AllBank":
        interval, duration, refresh_energy, banks_per_op = (
            t.trefi, t.trfc, e.e_refresh, nbanks)
    elif cfg.refresh_policy == "SameBank":
        # two bank groups refreshed alternately, half the blackout each
        interval, duration, refresh_energy, banks_per_op = (
            t.trefi / 2, t.trfc * 0.6, e.e_refresh / 2, nbanks // 2)
    else:
        # PerBank: one bank at a time, short blackout, lowest disturbance
        interval, duration, refresh_energy, banks_per_op = (
            t.trefi / nbanks, t.trfc * 0.3, e.e_refresh / nbanks, 1)

    # -- per-bank state ------------------------------------------------------------
    open_row: List[Optional[int]] = [None] * nbanks
    ready_at = [0.0] * nbanks
    last_act = [float("-inf")] * nbanks
    blocked_until = [0.0] * nbanks          # refresh blackout
    opened_since: List[Optional[float]] = [None] * nbanks
    open_time = [0.0] * nbanks

    refreshed_state = (open_row, opened_since, open_time, blocked_until)

    # -- main loop -----------------------------------------------------------------
    now = 0.0
    bus_free = 0.0
    bus_last_write: Optional[bool] = None
    refresh_due = interval
    refresh_debt = 0
    refresh_credit = 0
    inflight: List[float] = []      # min-heap of finish times
    draining_writes = False         # ReadWrite buffer organization
    bank_rr = 0                     # Bankwise round-robin pointer
    refresh_rr_bank = 0
    n_refreshes = 0
    row_hits = row_misses = row_conflicts = reads = writes = 0
    e_act_total = 0.0
    e_rw_total = 0.0
    e_refresh_total = 0.0
    finish = [0.0] * n
    heappush, heappop = heapq.heappush, heapq.heappop

    next_idx = 0
    buffer: List[_Request] = []
    # the views of the buffer (see the docstring)
    pending_reads: List[_Request] = []
    pending_writes: List[_Request] = []
    bank_views: List[List[_Request]] = [[] for _ in range(nbanks)]
    banks_with_work: List[int] = []
    while next_idx < n or buffer:
        # admit arrivals up to the request buffer capacity
        while next_idx < n and arrivals[next_idx] <= now and len(buffer) < cap:
            r = requests[next_idx]
            buffer.append(r)
            if read_write_buffer:
                (pending_writes if r[3] else pending_reads).append(r)
            elif bankwise_buffer:
                view = bank_views[r[1]]
                if not view:
                    insort(banks_with_work, r[1])
                view.append(r)
            next_idx += 1

        if not buffer:
            # idle: issue early refreshes into the gap, up to the pull-in
            # cap, then jump to the next arrival
            next_arrival = arrivals[next_idx]
            while refresh_credit < max_pulledin and now + duration <= next_arrival:
                refresh_rr_bank = _refresh(
                    refreshed_state, now, refresh_rr_bank, banks_per_op, duration
                )
                e_refresh_total += refresh_energy
                n_refreshes += 1
                refresh_credit += 1
                now += duration
            now = max(now, next_arrival)
            continue

        # refresh postpone / pull-in policy at the current time
        while now >= refresh_due:
            if refresh_credit > 0:
                # a pulled-in refresh already covered this interval
                refresh_credit -= 1
            elif refresh_debt < max_postponed:
                refresh_debt += 1
            else:
                # pay the whole debt in one blackout burst
                end = now
                for _ in range(refresh_debt + 1):
                    refresh_rr_bank = _refresh(
                        refreshed_state, end, refresh_rr_bank, banks_per_op, duration
                    )
                    e_refresh_total += refresh_energy
                    n_refreshes += 1
                    end += duration
                refresh_debt = 0
            refresh_due += interval

        # in-flight cap: wait for the oldest transaction to retire
        while len(inflight) >= max_active:
            now = max(now, heappop(inflight))
        while inflight and inflight[0] <= now:
            heappop(inflight)

        # candidates: the scheduler-buffer organization, then the arbiter
        if read_write_buffer:
            if draining_writes:
                if len(pending_writes) <= drain_stop:
                    draining_writes = False
            elif len(pending_writes) >= drain_start:
                draining_writes = True
            if draining_writes and pending_writes:
                pool = pending_writes
            else:
                pool = pending_reads or buffer
        elif bankwise_buffer:
            rr_bank = banks_with_work[bank_rr % len(banks_with_work)]
            bank_rr = (bank_rr + 1) % len(banks_with_work)
            pool = bank_views[rr_bank]
        else:
            pool = buffer
        if window:
            pool = pool[:window]

        # scheduler: FR-FCFS takes the oldest row hit, else the oldest
        # request; FrFcFsGrp first prefers row hits in the current bus
        # direction, and after the row hits the same direction
        entry = None
        if not fifo_scheduler:
            if grouped_scheduler:
                for r in pool:
                    if open_row[r[1]] == r[2] and r[3] == bus_last_write:
                        entry = r
                        break
            if entry is None:
                for r in pool:
                    if open_row[r[1]] == r[2]:
                        entry = r
                        break
            if entry is None and grouped_scheduler:
                for r in pool:
                    if r[3] == bus_last_write:
                        entry = r
                        break
        if entry is None:
            entry = pool[0]
        # remove by value, not the head: FR-FCFS may serve a request that
        # is not the oldest (entries are unique, ``order`` comes first)
        buffer.remove(entry)
        if read_write_buffer:
            (pending_writes if entry[3] else pending_reads).remove(entry)
        elif bankwise_buffer:
            view = bank_views[entry[1]]
            view.remove(entry)
            if not view:
                banks_with_work.remove(entry[1])

        # per-access timing. A maximum written as ``x = a`` then
        # ``if b > x: x = b`` is ``max(a, b)`` exactly (the first of equal
        # operands wins), without the call.
        order, bank, row, is_write = entry
        start = now
        if ready_at[bank] > start:
            start = ready_at[bank]
        if blocked_until[bank] > start:
            start = blocked_until[bank]
        current_row = open_row[bank]
        if current_row == row:
            row_hits += 1
            col_ready = start
        else:
            if current_row is None:
                row_misses += 1
                act_at = start
                if last_act[bank] + trc > act_at:
                    act_at = last_act[bank] + trc
            else:
                row_conflicts += 1
                since = opened_since[bank]
                if since is not None:
                    open_time[bank] += max(0.0, start - since)
                act_at = start + trp                    # precharge done
                if last_act[bank] + tras + trp > act_at:
                    act_at = last_act[bank] + tras + trp
                if last_act[bank] + trc > act_at:
                    act_at = last_act[bank] + trc
            last_act[bank] = act_at
            opened_since[bank] = act_at
            open_row[bank] = row
            e_act_total += e_act
            col_ready = act_at + trcd

        cas = tcwd if is_write else tcl
        turnaround = 0.0
        if bus_last_write is not None and bus_last_write != is_write:
            turnaround = twtr if bus_last_write else trtw
        data_start = col_ready + cas
        if bus_free + turnaround > data_start:
            data_start = bus_free + turnaround
        done_at = data_start + burst_time

        bus_free = done_at
        bus_last_write = is_write
        ready_at[bank] = done_at + (twr if is_write else 0.0)
        finish[order] = done_at

        if is_write:
            writes += 1
            e_rw_total += e_write
        else:
            reads += 1
            e_rw_total += e_read

        now = data_start
        heappush(inflight, done_at)

        # page policy: close the row, except that the adaptive policies
        # keep it open while a pending request targets it
        keep_open = not close_pages
        if not (keep_open or close_always):
            for r in buffer:
                if r[1] == bank and r[2] == row:
                    keep_open = True
                    break
        if not keep_open:
            close_at = ready_at[bank]
            since = opened_since[bank]
            if since is not None:
                open_time[bank] += max(0.0, close_at - since)
                opened_since[bank] = None
            open_row[bank] = None
            # auto-precharge overlaps other banks; only this bank pays tRP
            ready_at[bank] = close_at + trp

    end_time = max(finish)
    exec_time = max(end_time, 1e-9)

    # response queue: in-order release adds queueing delay. Latencies and
    # bank-open times are added left to right in plain loops, not with the
    # builtin sum(), which Python 3.12+ compensates for floats.
    total_latency = 0.0
    if release_in_order:
        release = 0.0
        for arrival, done_at in zip(arrivals, finish):
            release = max(release, done_at)
            total_latency += max(0.0, release - arrival)
    else:
        for arrival, done_at in zip(arrivals, finish):
            total_latency += max(0.0, done_at - arrival)
    avg_latency = total_latency / n

    # background energy from bank-open residency
    total_open = 0.0
    for bank in range(nbanks):
        since = opened_since[bank]
        if since is not None:
            open_time[bank] += max(0.0, end_time - since)
        total_open += open_time[bank]
    open_frac = min(1.0, total_open / exec_time)
    p_bg = e.p_background_idle + (e.p_background_active - e.p_background_idle) * open_frac
    background_energy = p_bg * exec_time  # W * ns = nJ
    cmd_energy = e_act_total + e_rw_total + e_refresh_total
    total_energy = cmd_energy + background_energy

    bytes_moved = n * device.line_bytes
    return SimResult(
        avg_latency_ns=avg_latency,
        power_w=total_energy / exec_time,
        energy_uj=total_energy / 1e3,
        exec_time_ns=exec_time,
        bandwidth_gbps=bytes_moved / exec_time,
        row_hits=row_hits,
        row_misses=row_misses,
        row_conflicts=row_conflicts,
        refreshes=n_refreshes,
        reads=reads,
        writes=writes,
        energy_breakdown_nj={
            "activate": e_act_total,
            "read_write": e_rw_total,
            "refresh": e_refresh_total,
            "background": background_energy,
        },
    )
