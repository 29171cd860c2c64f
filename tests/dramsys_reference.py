"""The DRAM simulator's original event loop, kept as the parity reference.

``repro.dramsys.simulator`` runs a flat, decode-once event loop. This
module holds the object-per-request loop it replaced, so
``tests/test_dramsys_parity.py`` can require that both produce equal
``SimResult``s on any device, trace and controller configuration.
Call it as ``_Run(device, config, trace).execute()``. It is unchanged
except that its two float sums use ``_sum_in_order``, as the simulator
does, so the parity holds on Python 3.12+ too.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from repro.dramsys.config import ControllerConfig
from repro.dramsys.device import DramDevice
from repro.dramsys.simulator import SimResult
from repro.dramsys.traces import Trace


def _sum_in_order(values) -> float:
    """Left-to-right float sum: the builtin ``sum`` before Python 3.12."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass
class _Bank:
    open_row: Optional[int] = None
    ready_at: float = 0.0
    last_act: float = float("-inf")
    blocked_until: float = 0.0      # refresh blackout
    opened_since: Optional[float] = None
    open_time: float = 0.0

    def accumulate_open(self, until: float) -> None:
        if self.opened_since is not None:
            self.open_time += max(0.0, until - self.opened_since)
            self.opened_since = None


@dataclass
class _Entry:
    order: int
    arrival: float
    address: int
    bank: int
    row: int
    is_write: bool
    finish: float = 0.0


@dataclass
class _RefreshPlan:
    """Granularity-specific refresh parameters (derived from policy)."""

    interval: float         # time between refresh operations
    duration: float         # blackout per operation
    energy: float           # nJ per operation
    banks_per_op: int       # how many banks each operation blocks


class _Run:
    """One simulation execution (all mutable state lives here)."""

    def __init__(self, device: DramDevice, config: ControllerConfig, trace: Trace):
        self.dev = device
        self.t = device.timings
        self.cfg = config
        self.trace = trace

        self.banks = [_Bank() for _ in range(device.banks)]
        self.bus_free = 0.0
        self.bus_last_write: Optional[bool] = None
        self.now = 0.0

        # refresh
        self.plan = self._refresh_plan()
        self.refresh_due = self.plan.interval
        self.refresh_debt = 0
        self.refresh_credit = 0
        self.refresh_rr_bank = 0
        self.n_refreshes = 0

        # energy accounting (nJ), split by component
        self.e_act_total = 0.0
        self.e_rw_total = 0.0
        self.e_refresh_total = 0.0

        # stats
        self.row_hits = 0
        self.row_misses = 0
        self.row_conflicts = 0
        self.reads = 0
        self.writes = 0

        # in-flight transaction cap
        self.inflight: List[float] = []  # min-heap of finish times

        # read/write drain state for the ReadWrite buffer organization
        self.draining_writes = False
        # bankwise round-robin pointer
        self.bank_rr = 0

    # -- refresh ---------------------------------------------------------------------

    def _refresh_plan(self) -> _RefreshPlan:
        t, e, nbanks = self.t, self.dev.energy, self.dev.banks
        if self.cfg.refresh_policy == "AllBank":
            return _RefreshPlan(t.trefi, t.trfc, e.e_refresh, nbanks)
        if self.cfg.refresh_policy == "SameBank":
            # two bank groups refreshed alternately, half the blackout each
            return _RefreshPlan(t.trefi / 2, t.trfc * 0.6, e.e_refresh / 2, nbanks // 2)
        # PerBank: one bank at a time, short blackout, lowest disturbance
        return _RefreshPlan(t.trefi / nbanks, t.trfc * 0.3, e.e_refresh / nbanks, 1)

    def _blocked_banks_for_refresh(self) -> List[int]:
        n = self.plan.banks_per_op
        start = self.refresh_rr_bank
        self.refresh_rr_bank = (start + n) % self.dev.banks
        return [(start + i) % self.dev.banks for i in range(n)]

    def _perform_refresh(self, at: float, count: int = 1) -> float:
        """Execute ``count`` back-to-back refresh operations at ``at``.
        Returns the time the blackout ends."""
        end = at
        for _ in range(count):
            for b in self._blocked_banks_for_refresh():
                bank = self.banks[b]
                bank.accumulate_open(end)   # refresh precharges the row
                bank.open_row = None
                bank.blocked_until = max(bank.blocked_until, end + self.plan.duration)
            self.e_refresh_total += self.plan.energy
            self.n_refreshes += 1
            end += self.plan.duration
        return end

    def _refresh_tick(self, buffer_nonempty: bool) -> None:
        """Apply the postpone/pull-in policy at the current time."""
        while self.now >= self.refresh_due:
            if self.refresh_credit > 0:
                # a pulled-in refresh already covered this interval
                self.refresh_credit -= 1
                self.refresh_due += self.plan.interval
            elif buffer_nonempty and self.refresh_debt < self.cfg.refresh_max_postponed:
                self.refresh_debt += 1
                self.refresh_due += self.plan.interval
            else:
                # pay the whole debt in one blackout burst
                self._perform_refresh(self.now, count=self.refresh_debt + 1)
                self.refresh_debt = 0
                self.refresh_due += self.plan.interval

    def _try_pull_in(self, idle_until: float) -> None:
        """Issue early refreshes into an idle gap, up to the pull-in cap."""
        while (
            self.refresh_credit < self.cfg.refresh_max_pulledin
            and self.now + self.plan.duration <= idle_until
        ):
            self._perform_refresh(self.now)
            self.refresh_credit += 1
            self.now += self.plan.duration

    # -- scheduling -----------------------------------------------------------------

    def _visible(self, buffer: List[_Entry]) -> List[_Entry]:
        """Entries the scheduler may reorder among (arbiter policy)."""
        if self.cfg.arbiter == "Reorder":
            return buffer
        # Fifo arbiter: reordering restricted to the oldest half-window
        window = max(1, (self.cfg.request_buffer_size + 1) // 2)
        return buffer[:window]

    def _candidates(self, buffer: List[_Entry]) -> List[_Entry]:
        """Apply the scheduler-buffer organization, then the arbiter."""
        org = self.cfg.scheduler_buffer
        if org == "ReadWrite":
            writes = [e for e in buffer if e.is_write]
            cap = self.cfg.request_buffer_size
            if self.draining_writes:
                if len(writes) <= max(1, cap // 4):
                    self.draining_writes = False
            elif len(writes) >= max(1, (3 * cap) // 4):
                self.draining_writes = True
            pool = writes if (self.draining_writes and writes) else \
                [e for e in buffer if not e.is_write] or buffer
            return self._visible(pool)
        if org == "Bankwise":
            banks_with_work = sorted({e.bank for e in buffer})
            for step in range(len(banks_with_work)):
                b = banks_with_work[(self.bank_rr + step) % len(banks_with_work)]
                pool = [e for e in buffer if e.bank == b]
                if pool:
                    self.bank_rr = (self.bank_rr + step + 1) % max(1, len(banks_with_work))
                    return self._visible(pool)
        return self._visible(buffer)

    def _select(self, buffer: List[_Entry]) -> _Entry:
        pool = self._candidates(buffer)
        policy = self.cfg.scheduler
        if policy == "Fifo":
            return pool[0]

        def is_hit(e: _Entry) -> bool:
            return self.banks[e.bank].open_row == e.row

        if policy == "FrFcFs":
            hits = [e for e in pool if is_hit(e)]
            return hits[0] if hits else pool[0]

        # FrFcFsGrp: row hits matching the current bus direction first,
        # then any row hit, then same-direction, then oldest.
        direction = self.bus_last_write
        same_dir_hits = [e for e in pool if is_hit(e) and e.is_write == direction]
        if same_dir_hits:
            return same_dir_hits[0]
        hits = [e for e in pool if is_hit(e)]
        if hits:
            return hits[0]
        same_dir = [e for e in pool if e.is_write == direction]
        return same_dir[0] if same_dir else pool[0]

    # -- per-access timing ---------------------------------------------------------

    def _service(self, entry: _Entry) -> None:
        bank = self.banks[entry.bank]
        t = self.t
        start = max(self.now, bank.ready_at, bank.blocked_until)

        if bank.open_row == entry.row:
            self.row_hits += 1
            col_ready = start
        elif bank.open_row is None:
            self.row_misses += 1
            act_at = max(start, bank.last_act + t.trc)
            bank.last_act = act_at
            bank.opened_since = act_at
            bank.open_row = entry.row
            self.e_act_total += self.dev.energy.e_act
            col_ready = act_at + t.trcd
        else:
            self.row_conflicts += 1
            bank.accumulate_open(start)
            pre_done = max(start + t.trp, bank.last_act + t.tras + t.trp)
            act_at = max(pre_done, bank.last_act + t.trc)
            bank.last_act = act_at
            bank.opened_since = act_at
            bank.open_row = entry.row
            self.e_act_total += self.dev.energy.e_act
            col_ready = act_at + t.trcd

        cas = t.tcwd if entry.is_write else t.tcl
        turnaround = 0.0
        if self.bus_last_write is not None and self.bus_last_write != entry.is_write:
            turnaround = t.twtr if self.bus_last_write else t.trtw
        data_start = max(col_ready + cas, self.bus_free + turnaround)
        finish = data_start + t.burst_time

        self.bus_free = finish
        self.bus_last_write = entry.is_write
        bank.ready_at = finish + (t.twr if entry.is_write else 0.0)
        entry.finish = finish

        if entry.is_write:
            self.writes += 1
            self.e_rw_total += self.dev.energy.e_write
        else:
            self.reads += 1
            self.e_rw_total += self.dev.energy.e_read

        self.now = data_start
        heapq.heappush(self.inflight, finish)

    def _apply_page_policy(self, entry: _Entry, buffer: List[_Entry]) -> None:
        bank = self.banks[entry.bank]
        policy = self.cfg.page_policy
        if policy == "Open":
            return
        same_row_pending = any(
            e.bank == entry.bank and e.row == entry.row for e in buffer
        )
        if policy == "Closed" or (
            policy == "ClosedAdaptive" and not same_row_pending
        ) or (
            policy == "OpenAdaptive" and not same_row_pending
        ):
            close_at = bank.ready_at
            bank.accumulate_open(close_at)
            bank.open_row = None
            # auto-precharge overlaps other banks; only this bank pays tRP
            bank.ready_at = close_at + self.t.trp

    # -- main loop -------------------------------------------------------------------

    def execute(self) -> SimResult:
        requests = list(self.trace.requests)
        n = len(requests)
        entries: List[_Entry] = []
        for i, r in enumerate(requests):
            bank, row = self.dev.map_address(r.address)
            entries.append(_Entry(i, r.arrival_ns, r.address, bank, row, r.is_write))

        pending = entries  # sorted by arrival already
        next_idx = 0
        buffer: List[_Entry] = []
        done: List[_Entry] = []

        while next_idx < n or buffer:
            # admit arrivals up to the request buffer capacity
            while (
                next_idx < n
                and pending[next_idx].arrival <= self.now
                and len(buffer) < self.cfg.request_buffer_size
            ):
                buffer.append(pending[next_idx])
                next_idx += 1

            if not buffer:
                # idle: opportunity to pull refreshes in, then jump to the
                # next arrival
                next_arrival = pending[next_idx].arrival
                self._try_pull_in(next_arrival)
                self.now = max(self.now, next_arrival)
                continue

            self._refresh_tick(buffer_nonempty=True)

            # in-flight cap: wait for the oldest transaction to retire
            while len(self.inflight) >= self.cfg.max_active_transactions:
                self.now = max(self.now, heapq.heappop(self.inflight))
            while self.inflight and self.inflight[0] <= self.now:
                heapq.heappop(self.inflight)

            entry = self._select(buffer)
            buffer.remove(entry)
            self._service(entry)
            self._apply_page_policy(entry, buffer)
            done.append(entry)

        end_time = max(e.finish for e in done)
        exec_time = max(end_time, 1e-9)

        # response queue: in-order release adds queueing delay
        latencies = self._release_latencies(done)
        avg_latency = _sum_in_order(latencies) / len(latencies)

        # background energy from bank-open residency
        for bank in self.banks:
            bank.accumulate_open(end_time)
        open_frac = min(
            1.0, _sum_in_order(b.open_time for b in self.banks) / exec_time
        )
        e = self.dev.energy
        p_bg = e.p_background_idle + (e.p_background_active - e.p_background_idle) * open_frac
        background_energy = p_bg * exec_time  # W * ns = nJ
        cmd_energy = self.e_act_total + self.e_rw_total + self.e_refresh_total
        total_energy = cmd_energy + background_energy

        bytes_moved = n * self.dev.line_bytes
        return SimResult(
            avg_latency_ns=avg_latency,
            power_w=total_energy / exec_time,
            energy_uj=total_energy / 1e3,
            exec_time_ns=exec_time,
            bandwidth_gbps=bytes_moved / exec_time,
            row_hits=self.row_hits,
            row_misses=self.row_misses,
            row_conflicts=self.row_conflicts,
            refreshes=self.n_refreshes,
            reads=self.reads,
            writes=self.writes,
            energy_breakdown_nj={
                "activate": self.e_act_total,
                "read_write": self.e_rw_total,
                "refresh": self.e_refresh_total,
                "background": background_energy,
            },
        )

    def _release_latencies(self, done: List[_Entry]) -> List[float]:
        ordered = sorted(done, key=lambda e: e.order)
        latencies: List[float] = []
        if self.cfg.resp_queue_policy == "Reorder":
            for e in ordered:
                latencies.append(max(0.0, e.finish - e.arrival))
            return latencies
        release = 0.0
        for e in ordered:
            release = max(release, e.finish)
            latencies.append(max(0.0, release - e.arrival))
        return latencies
