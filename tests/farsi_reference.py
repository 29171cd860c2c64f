"""The FARSI list scheduler's original per-call loop, kept as the parity
reference.

``repro.farsi.simulator`` reads each task graph's plan (topological
order and index-addressed predecessors, built once per graph) and costs
each PE type once per call. This module holds the loop it replaced,
which walks the networkx graph on every call, so
``tests/test_farsi_parity.py`` can require that both give equal
``SocResult``s on any task graph and SoC. ``simulate`` is copied
unchanged; ``ReferenceFarsiSimulator`` is a ``FarsiSimulator`` with it
swapped back in.
"""

from __future__ import annotations

from typing import Dict

from repro.core.errors import SimulationError
from repro.farsi.simulator import (
    E_MEM_NJ_PER_BYTE,
    E_NOC_NJ_PER_BYTE,
    INFEASIBLE_SOC_PENALTY,
    FarsiSimulator,
    SocResult,
)
from repro.farsi.soc import SoCConfig
from repro.farsi.taskgraph import TaskGraph


class ReferenceFarsiSimulator(FarsiSimulator):
    """``FarsiSimulator`` that re-walks the networkx graph on every call."""

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

        labels = [f"{pe.name}#{i}" for i, pe in enumerate(pes)]
        pe_free = [0.0] * len(pes)
        pe_busy = [0.0] * len(pes)
        bus_free = 0.0
        finish: Dict[str, float] = {}
        assign: Dict[str, int] = {}
        dynamic_energy_mj = 0.0
        comm_total_ms = 0.0
        bw = config.transfer_bw_gbps  # GB/s == KiB/us * 1024/1e3 — see below

        def transfer_ms(kib: float) -> float:
            # KiB -> bytes, GB/s -> bytes/ms (1 GB/s = 1e6 bytes/ms)
            return (kib * 1024.0) / (bw * 1e6)

        for task in graph.topological_order():
            preds = graph.predecessors(task.name)

            # pick the PE with the earliest finish time (ties: lower power)
            best_pe = -1
            best_eft = float("inf")
            best_power = float("inf")
            for idx, pe in enumerate(pes):
                data_ready = 0.0
                for pred, kib in preds:
                    ready = finish[pred.name]
                    if assign[pred.name] != idx:
                        ready += transfer_ms(kib)
                    data_ready = max(data_ready, ready)
                est = max(pe_free[idx], data_ready)
                eft = est + pe.exec_time_ms(task.mops, task.kind)
                if eft < best_eft - 1e-12 or (
                    abs(eft - best_eft) <= 1e-12 and pe.active_mw < best_power
                ):
                    best_pe, best_eft, best_power = idx, eft, pe.active_mw
            pe = pes[best_pe]

            # commit: serialize this task's inbound transfers on the bus
            data_ready = 0.0
            for pred, kib in preds:
                ready = finish[pred.name]
                if assign[pred.name] != best_pe:
                    t0 = max(bus_free, ready)
                    dt = transfer_ms(kib)
                    bus_free = t0 + dt
                    comm_total_ms += dt
                    bytes_moved = kib * 1024.0
                    dynamic_energy_mj += bytes_moved * (
                        E_NOC_NJ_PER_BYTE + E_MEM_NJ_PER_BYTE
                    ) * 1e-6
                    ready = bus_free
                data_ready = max(data_ready, ready)

            start = max(pe_free[best_pe], data_ready)
            exec_ms = pe.exec_time_ms(task.mops, task.kind)
            end = start + exec_ms
            pe_free[best_pe] = end
            pe_busy[best_pe] += exec_ms
            finish[task.name] = end
            assign[task.name] = best_pe
            # mW * ms = microjoules; store as millijoules
            dynamic_energy_mj += pe.active_mw * exec_ms * 1e-3

        makespan = max(finish.values())
        # mJ / ms = W; *1e3 -> mW
        dynamic_mw = dynamic_energy_mj * 1e3 / max(makespan, 1e-9) if makespan > 0 else 0.0
        power_mw = dynamic_mw + config.static_mw

        return SocResult(
            makespan_ms=makespan,
            power_mw=power_mw,
            area_mm2=config.area_mm2,
            feasible=True,
            assignment={t: labels[i] for t, i in assign.items()},
            pe_busy_ms=dict(zip(labels, pe_busy)),
            comm_ms=comm_total_ms,
        )
