"""FARSI-style SoC simulator: list scheduling + roofline estimation.

Given a :class:`SoCConfig` and a :class:`TaskGraph`, the simulator maps
tasks to PEs with an earliest-finish-time (HEFT-like) list scheduler,
serializes cross-PE transfers on the shared bus, and produces the
``<power, performance, area>`` observation of Table 3.

- **performance** — the schedule makespan in milliseconds,
- **power** — dynamic energy / makespan plus the static power of every
  instantiated component, in milliwatts,
- **area** — summed component area in mm^2.

SoCs with no PEs are *infeasible* and receive penalty metrics (the
paper's search spaces contain such points; agents must learn around
them).

The graph's structure is read from its :class:`~repro.farsi.taskgraph.GraphPlan`
(tasks in topological order, predecessors as ``(index, kib)`` pairs),
which the graph builds once and rebuilds after a change. Each call then
computes one execution-time row per distinct PE type (every task on
that type) and each inbound edge's transfer time once per task, and
keeps finish times and assignments in lists indexed like the plan.
Nothing is cached across calls. Every float expression keeps the
operands and order of the original per-call graph walk
(``tests/farsi_reference.py``), so results are bit-identical to it,
except that a schedule whose makespan or power is not finite (an edge
volume so large that its transfer time overflows) raises
:class:`~repro.core.errors.SimulationError` instead of being reported
as feasible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List

from repro.core.errors import SimulationError
from repro.farsi.soc import SoCConfig
from repro.farsi.taskgraph import TaskGraph

__all__ = ["SocResult", "FarsiSimulator", "INFEASIBLE_SOC_PENALTY"]

#: Metric value reported for SoCs that cannot run the workload at all.
INFEASIBLE_SOC_PENALTY = 1e9

#: Energy per byte moved across the bus / through memory (nanojoules).
E_NOC_NJ_PER_BYTE = 0.05
E_MEM_NJ_PER_BYTE = 0.12


@dataclass(frozen=True)
class SocResult:
    """Outcome of scheduling one task graph onto one SoC."""

    makespan_ms: float
    power_mw: float
    area_mm2: float
    feasible: bool
    assignment: Dict[str, str]           # task -> PE name (with slot index)
    pe_busy_ms: Dict[str, float]
    comm_ms: float

    def metrics(self) -> Dict[str, float]:
        """The FARSIGym observation dictionary."""
        return {
            "performance": self.makespan_ms,
            "power": self.power_mw,
            "area": self.area_mm2,
            "feasible": 1.0 if self.feasible else 0.0,
        }


class FarsiSimulator:
    """Schedules task graphs onto SoC design points."""

    def simulate(self, config: SoCConfig, graph: TaskGraph) -> SocResult:
        """Map ``graph`` onto ``config`` and estimate cost."""
        if len(graph) == 0:
            raise SimulationError("cannot simulate an empty task graph")
        pes = config.pes
        if not pes:
            return SocResult(
                makespan_ms=INFEASIBLE_SOC_PENALTY,
                power_mw=INFEASIBLE_SOC_PENALTY,
                area_mm2=config.area_mm2,
                feasible=False,
                assignment={},
                pe_busy_ms={},
                comm_ms=0.0,
            )

        plan = graph.plan()
        n_pes = len(pes)
        labels = [f"{pe.name}#{i}" for i, pe in enumerate(pes)]
        powers = [pe.active_mw for pe in pes]
        # exec_ms_on[i][t]: task t's execution time on PE i. A PE type
        # that fills several slots computes its row once (keyed on the
        # object, which ``pes`` keeps alive for the call).
        rows: Dict[int, List[float]] = {}
        exec_ms_on = []
        for pe in pes:
            row = rows.get(id(pe))
            if row is None:
                exec_time_ms = pe.exec_time_ms
                row = rows[id(pe)] = [
                    exec_time_ms(mops, kind) for mops, kind in zip(plan.mops, plan.kinds)
                ]
            exec_ms_on.append(row)
        pe_free = [0.0] * n_pes
        pe_busy = [0.0] * n_pes
        bus_free = 0.0
        finish = [0.0] * len(plan.names)
        assign = [0] * len(plan.names)
        dynamic_energy_mj = 0.0
        comm_total_ms = 0.0
        # GB/s -> bytes/ms (1 GB/s = 1e6 bytes/ms)
        bytes_per_ms = config.transfer_bw_gbps * 1e6

        for t, preds in enumerate(plan.preds):
            # each inbound edge once: producer's PE, data ready there,
            # data ready elsewhere, transfer time and bytes
            inbound = []
            for p, kib in preds:
                nbytes = kib * 1024.0
                dt = nbytes / bytes_per_ms
                inbound.append((assign[p], finish[p], finish[p] + dt, dt, nbytes))

            # pick the PE with the earliest finish time (ties: lower power);
            # each `x = a; if b > x: x = b` is max(a, b), first one winning
            best_pe = -1
            best_eft = float("inf")
            best_power = float("inf")
            for idx in range(n_pes):
                data_ready = 0.0
                for owner, local, remote, _, _ in inbound:
                    ready = local if owner == idx else remote
                    if ready > data_ready:
                        data_ready = ready
                est = pe_free[idx]
                if data_ready > est:
                    est = data_ready
                eft = est + exec_ms_on[idx][t]
                power = powers[idx]
                if eft < best_eft - 1e-12 or (
                    abs(eft - best_eft) <= 1e-12 and power < best_power
                ):
                    best_pe, best_eft, best_power = idx, eft, power

            # commit: serialize this task's inbound transfers on the bus
            data_ready = 0.0
            for owner, ready, _, dt, nbytes in inbound:
                if owner != best_pe:
                    t0 = bus_free
                    if ready > t0:
                        t0 = ready
                    bus_free = t0 + dt
                    comm_total_ms += dt
                    dynamic_energy_mj += nbytes * (
                        E_NOC_NJ_PER_BYTE + E_MEM_NJ_PER_BYTE
                    ) * 1e-6
                    ready = bus_free
                if ready > data_ready:
                    data_ready = ready

            start = pe_free[best_pe]
            if data_ready > start:
                start = data_ready
            exec_ms = exec_ms_on[best_pe][t]
            end = start + exec_ms
            pe_free[best_pe] = end
            pe_busy[best_pe] += exec_ms
            finish[t] = end
            assign[t] = best_pe
            # mW * ms = microjoules; store as millijoules
            dynamic_energy_mj += powers[best_pe] * exec_ms * 1e-3

        makespan = max(finish)
        # mJ / ms = W; *1e3 -> mW
        dynamic_mw = dynamic_energy_mj * 1e3 / max(makespan, 1e-9) if makespan > 0 else 0.0
        power_mw = dynamic_mw + config.static_mw
        if not (math.isfinite(makespan) and math.isfinite(power_mw)):
            raise SimulationError(
                f"schedule of {graph.name!r} is not finite: makespan "
                f"{makespan!r} ms, power {power_mw!r} mW"
            )

        return SocResult(
            makespan_ms=makespan,
            power_mw=power_mw,
            area_mm2=config.area_mm2,
            feasible=True,
            assignment={name: labels[i] for name, i in zip(plan.names, assign)},
            pe_busy_ms=dict(zip(labels, pe_busy)),
            comm_ms=comm_total_ms,
        )
