"""The Timeloop mapper's original per-layer search, kept as the parity
reference.

``repro.timeloop.model`` builds each network's candidate tilings once
and costs all of its layers in one array pass. This module holds the
per-layer mapper it replaced, so ``tests/test_timeloop_parity.py`` can
require that both give equal results on any layer, network,
architecture and energy model. ``_pow2_upto``, ``evaluate_layer`` and
``evaluate_network`` are copied unchanged; ``ReferenceTimeloopModel``
is a ``TimeloopModel`` with the two methods swapped back in.
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.dnn.layers import ConvLayer
from repro.timeloop.arch import AcceleratorConfig
from repro.timeloop.model import INFEASIBLE_PENALTY, LayerCost, TimeloopModel


def _pow2_upto(n: int, cap: int = 4096) -> np.ndarray:
    vals = [1]
    while vals[-1] * 2 <= min(n, cap):
        vals.append(vals[-1] * 2)
    if vals[-1] != n and n <= cap:
        vals.append(n)
    return np.array(vals, dtype=np.int64)


class ReferenceTimeloopModel(TimeloopModel):
    """``TimeloopModel`` that maps one layer at a time, rebuilding its
    tiling grid on every call."""

    # -- single layer -------------------------------------------------------------

    def evaluate_layer(self, arch: AcceleratorConfig, layer: ConvLayer) -> LayerCost:
        """Map and cost one layer; returns the best feasible mapping."""
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

        R, S, P, Q, stride = layer.R, layer.S, layer.P, layer.Q, layer.stride
        in_w = (Q - 1) * stride + S
        macs = float(layer.macs)

        # tile footprints (words)
        wt = TK * TC * R * S
        pt = TK * TP * Q
        it = TC * ((TP - 1) * stride + R) * in_w

        feasible = (
            (wt <= arch.weight_l1_words)
            & (pt <= arch.psum_l1_words)
            & (wt + pt + np.minimum(it, arch.glb_words) <= arch.glb_words)
        )
        if not feasible.any():
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

        n_k = np.ceil(layer.K / TK)
        n_c = np.ceil(channels / TC)
        n_p = np.ceil(P / TP)

        w_words = float(layer.weight_words)
        i_words = float(layer.input_words)
        o_words = float(layer.output_words)

        # halo: input rows refetched at P-tile boundaries
        halo = ((TP - 1) * stride + R) / np.maximum(TP * stride, 1)
        halo = np.maximum(halo, 1.0)

        # DRAM traffic
        w_resident = w_words <= 0.5 * arch.glb_words
        dram_w = np.where(w_resident, w_words, w_words * n_p)
        i_resident = i_words <= 0.5 * arch.glb_words
        dram_i = np.where(i_resident, i_words * halo, i_words * halo * n_k)
        dram_o = o_words
        dram = dram_w + dram_i + dram_o

        # GLB traffic: spad refills + psum write-through
        glb_w = w_words * n_p
        glb_i = i_words * halo * n_k
        # input replay when the ifmap spad cannot hold the reuse window
        window = TC * R * S
        replay = np.clip(np.ceil(window / max(arch.ifmap_l1_words / arch.num_pes, 1.0)), 1, R * S)
        glb_i = glb_i * replay
        glb_o = o_words
        glb = glb_w + glb_i + glb_o

        # spad traffic: two operand reads + one psum update per MAC
        spad = 3.0 * macs
        # NoC traffic: every GLB word crosses the array interconnect
        noc = glb

        # cycles: spatial work per pass bounds PE utilization
        spatial = np.minimum(TK * TP * Q, arch.num_pes)
        util = spatial / arch.num_pes
        compute_cycles = macs / np.maximum(spatial, 1)
        dram_cycles = dram / arch.dram_bw
        glb_cycles = glb / arch.glb_bw
        cycles = np.maximum.reduce([compute_cycles, dram_cycles, glb_cycles])

        e = self.energy
        energy_pj = (
            macs * e.e_mac + spad * e.e_spad + glb * e.e_glb
            + dram * e.e_dram + noc * e.e_noc
        )
        latency_s = cycles / (arch.clock_ghz * 1e9)
        edp = np.where(feasible, energy_pj * latency_s, np.inf)

        best = int(np.argmin(edp))
        return LayerCost(
            layer=layer.name,
            feasible=True,
            cycles=float(cycles[best]),
            latency_ms=float(latency_s[best] * 1e3),
            energy_mj=float(energy_pj[best] * 1e-9),
            dram_words=float(dram[best]),
            glb_words=float(glb[best]),
            utilization=float(util[best]),
            tile_k=int(TK[best]),
            tile_c=int(TC[best]),
            tile_p=int(TP[best]),
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
        total_macs = sum(layer.macs * layer.repeat for layer in layers)
        for layer in layers:
            cost = self.evaluate_layer(arch, layer)
            feasible &= cost.feasible
            latency += cost.latency_ms * layer.repeat
            energy += cost.energy_mj * layer.repeat
            utilization += cost.utilization * layer.macs * layer.repeat / max(total_macs, 1)
        return {
            "latency": latency,
            "energy": energy,
            "area": arch.area_mm2,
            "feasible": float(feasible),
            "utilization": utilization,
        }
