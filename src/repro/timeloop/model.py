"""Analytical DNN-accelerator cost model with an internal mapper.

This is the Timeloop stand-in: for one :class:`AcceleratorConfig` and one
:class:`ConvLayer` it searches a space of loop tilings (the "mapper"),
evaluates each candidate with reuse-based access counting (the "model"),
and returns the best mapping's ``<latency, energy, area>`` — exactly the
role Timeloop plays inside TimeloopGym.

Model structure (three-level hierarchy: DRAM -> global buffer -> per-PE
scratchpads -> MACs), loop order ``P (outer) -> K -> C (inner)``:

- weights are re-fetched from DRAM once per P-tile unless the whole
  weight tensor fits in (half of) the global buffer,
- inputs are re-fetched once per K-tile (with a halo-overlap factor),
- partial sums accumulate in the psum scratchpad across the C loop and
  are written to DRAM exactly once,
- scratchpad traffic is 3 accesses per MAC (read W, read I, update O),
  with an extra input-replay factor when the ifmap scratchpad cannot
  hold the sliding window,
- cycles = max(compute, DRAM bandwidth, GLB bandwidth) under perfect
  double buffering.

The candidate tilings are power-of-two grids per dimension; the mapper
picks each layer's feasible candidate with the lowest energy-delay
product (the first one, on a tie).

Most of that work depends on the layer alone. The first time a layer
tuple is evaluated, :func:`_network_plan` concatenates every layer's
candidate tilings (3,939 for resnet50) into one :class:`_NetworkPlan`
holding each array that does not depend on the architecture: the tile
grids and footprints, the tile counts and halo factors, both branches
of the DRAM input traffic, the GLB refills before input replay, the
replay window, and each candidate's layer constants. Every model instance in the process
shares the plan; nothing is built at import. One architecture then
costs all the layers in a single array pass. Each layer's pick is the
first minimum of its candidates' masked EDP — the rule ``np.argmin``
applies — read off a (layers x candidates) grid with ``argmin(axis=1)``.
A layer is a one-layer network, so :meth:`TimeloopModel.evaluate_layer`
runs the same pass.

Every candidate goes through the same float operations in the same
order as in the original per-layer mapper (kept in
``tests/timeloop_reference.py``), and the network totals add up in a
plain loop in layer order, so the results are bit-identical to it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Dict, Sequence, Tuple

import numpy as np

from repro.dnn.layers import ConvLayer
from repro.timeloop.arch import AcceleratorConfig, EnergyModel

__all__ = ["LayerCost", "TimeloopModel"]

#: Cost assigned to layers no mapping can fit (the paper's "infeasible
#: design points" — they must be representable, not crash the search).
INFEASIBLE_PENALTY = 1e9


@dataclass(frozen=True)
class LayerCost:
    """Mapper output for one layer on one architecture."""

    layer: str
    feasible: bool
    cycles: float
    latency_ms: float
    energy_mj: float
    dram_words: float
    glb_words: float
    utilization: float
    tile_k: int = 1
    tile_c: int = 1
    tile_p: int = 1


def _pow2_upto(n: int, cap: int = 4096) -> np.ndarray:
    vals = [1]
    while vals[-1] * 2 <= min(n, cap):
        vals.append(vals[-1] * 2)
    if vals[-1] != n and n <= cap:
        vals.append(n)
    return np.array(vals, dtype=np.int64)


def _layer_columns(layer: ConvLayer) -> Dict[str, Any]:
    """One layer's candidate tilings and each architecture-independent
    array of their costs, computed as the per-layer mapper computed them.
    Integer arrays that the pass only divides or clips are stored as the
    floats numpy would convert them to on every call."""
    channels = 1 if layer.depthwise else layer.C
    tk = _pow2_upto(layer.K)
    tc = _pow2_upto(channels)
    tp = _pow2_upto(layer.P)
    # every (tk, tc, tp) tiling, tk varying slowest
    TK, TC, TP = (
        np.repeat(tk, len(tc) * len(tp)),
        np.tile(np.repeat(tc, len(tp)), len(tk)),
        np.tile(tp, len(tk) * len(tc)),
    )
    n = len(TK)

    R, S, P, Q, stride = layer.R, layer.S, layer.P, layer.Q, layer.stride
    in_w = (Q - 1) * stride + S
    macs = float(layer.macs)

    # tile footprints (words)
    wt = TK * TC * R * S
    pt = TK * TP * Q
    it = TC * ((TP - 1) * stride + R) * in_w

    n_k = np.ceil(layer.K / TK)
    n_p = np.ceil(P / TP)

    w_words = float(layer.weight_words)
    i_words = float(layer.input_words)
    o_words = float(layer.output_words)

    # halo: input rows refetched at P-tile boundaries
    halo = ((TP - 1) * stride + R) / np.maximum(TP * stride, 1)
    halo = np.maximum(halo, 1.0)

    return dict(
        tk=TK, tc=TC, tp=TP, wt=wt, pt=pt, it=it, wt_pt=wt + pt,
        w_words=np.full(n, w_words), i_words=np.full(n, i_words),
        o_words=np.full(n, o_words),
        # DRAM input traffic if the inputs stay resident in the GLB;
        # otherwise it is the GLB's input refills
        dram_i_resident=i_words * halo,
        # GLB refills before input replay
        glb_w=w_words * n_p, glb_i=i_words * halo * n_k,
        # input replay window and its clip bound
        window=(TC * R * S).astype(np.float64), rs=np.full(n, float(R * S)),
        # spatial work per pass, before the PE-array cap
        spatial=pt.astype(np.float64), macs=np.full(n, macs),
        # spad traffic: two operand reads + one psum update per MAC
        spad=np.full(n, 3.0 * macs),
    )


class _NetworkPlan:
    """Every layer's candidate tilings, concatenated in layer order, and
    each array of the cost model that does not depend on the
    architecture. Read-only once built."""

    def __init__(self, layers: Tuple[ConvLayer, ...]) -> None:
        per_layer = [_layer_columns(layer) for layer in layers]

        def cat(name: str) -> np.ndarray:
            return np.concatenate([columns[name] for columns in per_layer])

        self.tk, self.tc, self.tp = cat("tk"), cat("tc"), cat("tp")
        self.wt, self.pt, self.it, self.wt_pt = cat("wt"), cat("pt"), cat("it"), cat("wt_pt")
        self.w_words, self.i_words, self.o_words = cat("w_words"), cat("i_words"), cat("o_words")
        self.dram_i_resident, self.glb_w, self.glb_i = (
            cat("dram_i_resident"), cat("glb_w"), cat("glb_i")
        )
        self.window, self.rs = cat("window"), cat("rs")
        self.spatial, self.macs, self.spad = cat("spatial"), cat("macs"), cat("spad")

        counts = [len(columns["tk"]) for columns in per_layer]
        starts = np.cumsum([0] + counts[:-1]).tolist()
        self.starts = np.array(starts, dtype=np.intp)
        # (layer, slot) -> candidate index. A short layer pads its row
        # with its first candidate, which argmin's first-minimum rule
        # already prefers, so a pad is never picked.
        self.pick_grid = np.repeat(self.starts[:, None], max(counts), axis=1)
        for row, (start, n) in enumerate(zip(starts, counts)):
            self.pick_grid[row, :n] = np.arange(start, start + n)
        self.layer_macs = [layer.macs for layer in layers]
        self.repeats = [layer.repeat for layer in layers]
        self.total_macs = sum(layer.macs * layer.repeat for layer in layers)


@functools.lru_cache(maxsize=16)
def _network_plan(layers: Tuple[ConvLayer, ...]) -> _NetworkPlan:
    """The process-wide plan of ``layers``, built on first use. A process
    costs a few networks (and their layers, one by one); the bound only
    stops a stream of distinct networks from growing without limit."""
    return _NetworkPlan(layers)


class _Picks:
    """One architecture's mapper pass over a plan: whether each layer
    has a feasible mapping, each layer's picked candidate, and the
    arrays the picks are read from."""

    def __init__(self, energy: EnergyModel, arch: AcceleratorConfig, plan: _NetworkPlan):
        glb_words = arch.glb_words
        feasible = (
            (plan.wt <= arch.weight_l1_words)
            & (plan.pt <= arch.psum_l1_words)
            & (plan.wt_pt + np.minimum(plan.it, glb_words) <= glb_words)
        )

        # DRAM traffic
        half_glb = 0.5 * glb_words
        dram_w = np.where(plan.w_words <= half_glb, plan.w_words, plan.glb_w)
        dram_i = np.where(plan.i_words <= half_glb, plan.dram_i_resident, plan.glb_i)
        dram = dram_w + dram_i + plan.o_words

        # GLB traffic: spad refills + psum write-through, with input
        # replay when the ifmap spad cannot hold the reuse window
        replay = np.ceil(plan.window / max(arch.ifmap_l1_words / arch.num_pes, 1.0))
        replay = np.minimum(np.maximum(replay, 1.0), plan.rs)  # clip to [1, R*S]
        glb = plan.glb_w + plan.glb_i * replay + plan.o_words

        # cycles: spatial work per pass bounds PE utilization
        spatial = np.minimum(plan.spatial, arch.num_pes)
        util = spatial / arch.num_pes
        compute_cycles = plan.macs / np.maximum(spatial, 1.0)
        dram_cycles = dram / arch.dram_bw
        glb_cycles = glb / arch.glb_bw
        cycles = np.maximum(np.maximum(compute_cycles, dram_cycles), glb_cycles)

        # NoC traffic: every GLB word crosses the array interconnect
        energy_pj = (
            plan.macs * energy.e_mac + plan.spad * energy.e_spad + glb * energy.e_glb
            + dram * energy.e_dram + glb * energy.e_noc
        )
        latency_s = cycles / (arch.clock_ghz * 1e9)
        edp = np.where(feasible, energy_pj * latency_s, np.inf)

        self.best = plan.starts + edp.take(plan.pick_grid).argmin(axis=1)
        self.feasible = np.logical_or.reduceat(feasible, plan.starts).tolist()
        self.cycles = cycles
        self.latency_s = latency_s
        self.energy_pj = energy_pj
        self.dram = dram
        self.glb = glb
        self.util = util


class TimeloopModel:
    """Evaluates layers (and whole networks) on accelerator configs."""

    def __init__(self, energy: EnergyModel = EnergyModel()):
        self.energy = energy

    # -- single layer -------------------------------------------------------------

    def evaluate_layer(self, arch: AcceleratorConfig, layer: ConvLayer) -> LayerCost:
        """Map and cost one layer; returns the best feasible mapping."""
        plan = _network_plan((layer,))
        picks = _Picks(self.energy, arch, plan)
        if not picks.feasible[0]:
            return LayerCost(
                layer=layer.name,
                feasible=False,
                cycles=INFEASIBLE_PENALTY,
                latency_ms=INFEASIBLE_PENALTY,
                energy_mj=INFEASIBLE_PENALTY,
                dram_words=INFEASIBLE_PENALTY,
                glb_words=INFEASIBLE_PENALTY,
                utilization=0.0,
            )
        best = int(picks.best[0])
        return LayerCost(
            layer=layer.name,
            feasible=True,
            cycles=float(picks.cycles[best]),
            latency_ms=float(picks.latency_s[best] * 1e3),
            energy_mj=float(picks.energy_pj[best] * 1e-9),
            dram_words=float(picks.dram[best]),
            glb_words=float(picks.glb[best]),
            utilization=float(picks.util[best]),
            tile_k=int(plan.tk[best]),
            tile_c=int(plan.tc[best]),
            tile_p=int(plan.tp[best]),
        )

    # -- whole network --------------------------------------------------------------

    def evaluate_network(
        self, arch: AcceleratorConfig, layers: Sequence[ConvLayer]
    ) -> Dict[str, float]:
        """Sum layer costs (honoring ``repeat``) into the TimeloopGym
        observation: latency (ms), energy (mJ), area (mm^2)."""
        latency = 0.0
        energy = 0.0
        feasible = True
        utilization = 0.0
        if layers:
            plan = _network_plan(tuple(layers))
            picks = _Picks(self.energy, arch, plan)
            best = picks.best
            rows = zip(
                picks.feasible,
                (picks.latency_s[best] * 1e3).tolist(),
                (picks.energy_pj[best] * 1e-9).tolist(),
                picks.util[best].tolist(),
                plan.layer_macs,
                plan.repeats,
            )
            total_macs = plan.total_macs
            for ok, latency_ms, energy_mj, util, macs, repeat in rows:
                if not ok:
                    latency_ms = energy_mj = INFEASIBLE_PENALTY
                    util = 0.0
                feasible &= ok
                latency += latency_ms * repeat
                energy += energy_mj * repeat
                utilization += util * macs * repeat / max(total_macs, 1)
        return {
            "latency": latency,
            "energy": energy,
            "area": arch.area_mm2,
            "feasible": float(feasible),
            "utilization": utilization,
        }
