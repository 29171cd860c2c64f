"""MAESTRO-style data-centric mapping cost model.

Evaluates a :class:`~repro.maestro.mapping.Mapping` on a fixed spatial
accelerator (256 PEs, per-PE L1 scratchpads, shared L2 buffer) for a DNN
layer, using reuse-based traffic analysis:

For each tensor T with index set I(T) (weights: {K, C}; inputs:
{C, P, Q}; outputs: {K, P, Q}), the number of times T is re-fetched
across a tiled loop nest equals the product of trip counts of loops that
(a) do not index T and (b) sit outside T's innermost indexing loop —
those iterations change the live working set beneath them. Applying
this at the DRAM->L2 and L2->L1 boundaries gives traffic per level;
runtime is the max of compute and bandwidth rooflines; energy follows
the access-count x per-level-cost sum.

Mappings whose tiles overflow a buffer level are *infeasible* and get
penalty costs — the MaestroGym search space is dominated by such points
(the paper quotes 1e24 raw points), so agents must navigate validity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Sequence

from repro.core.errors import SimulationError
from repro.dnn.layers import ConvLayer
from repro.maestro.mapping import LOOP_DIMS, Mapping

__all__ = [
    "MaestroAccelerator",
    "MaestroLayerCost",
    "MaestroModel",
    "MAESTRO_INFEASIBLE",
    "CLOUD_ACCELERATOR",
    "EDGE_ACCELERATOR",
]

#: Penalty runtime/energy for infeasible mappings.
MAESTRO_INFEASIBLE = 1e9

#: Tensor index sets over the tiled loop dims.
_TENSOR_DIMS = {
    "W": ("K", "C"),
    "I": ("C", "P", "Q"),
    "O": ("K", "P", "Q"),
}


@dataclass(frozen=True)
class MaestroAccelerator:
    """The fixed accelerator MAESTRO mappings target."""

    num_pes: int = 256
    l1_words: int = 512            # per PE
    l2_words: int = 512 * 1024     # shared buffer (1 MiB of 16-bit words)
    dram_bw: float = 16.0          # words / cycle
    l2_bw: float = 64.0            # words / cycle
    clock_ghz: float = 1.0
    e_mac_pj: float = 0.2
    e_l1_pj: float = 0.15
    e_l2_pj: float = 1.8
    e_dram_pj: float = 35.0
    area_mm2: float = 14.0

    def __post_init__(self) -> None:
        if self.num_pes < 1 or self.l1_words < 1 or self.l2_words < 1:
            raise SimulationError("accelerator sizes must be positive")


#: The default cloud-scale target (256 PEs, 1 MiB shared buffer).
CLOUD_ACCELERATOR = MaestroAccelerator()

#: An edge-scale target: fewer PEs, smaller buffers, tighter bandwidth.
#: Mappings that win on the cloud target often overflow this one — useful
#: for studying mapping portability.
EDGE_ACCELERATOR = MaestroAccelerator(
    num_pes=64,
    l1_words=256,
    l2_words=128 * 1024,
    dram_bw=4.0,
    l2_bw=16.0,
    clock_ghz=0.8,
    area_mm2=4.5,
)


@dataclass(frozen=True)
class MaestroLayerCost:
    """Cost of one (mapping, layer) pair."""

    layer: str
    feasible: bool
    cycles: float
    runtime_ms: float
    energy_mj: float
    dram_words: float
    l2_words: float
    pes_used: int
    utilization: float


class MaestroModel:
    """Evaluates mappings on layers and whole networks."""

    def __init__(self, accelerator: MaestroAccelerator = MaestroAccelerator()):
        self.acc = accelerator

    # -- reuse analysis helpers ---------------------------------------------------

    @staticmethod
    def _refetch_multiplier(order: str, tensor: str, trips: Dict[str, float]) -> float:
        """Product of trip counts of loops outside the tensor's innermost
        indexing loop that do not index the tensor."""
        dims = _TENSOR_DIMS[tensor]
        innermost = max(order.index(d) for d in dims)
        mult = 1.0
        for pos, d in enumerate(order):
            if pos < innermost and d not in dims:
                mult *= trips[d]
        return mult

    @staticmethod
    def _tensor_words(tensor: str, sizes: Dict[str, float], layer: ConvLayer) -> float:
        if tensor == "W":
            return sizes["K"] * sizes["C"] * layer.R * layer.S
        if tensor == "I":
            ih = (sizes["P"] - 1) * layer.stride + layer.R
            iw = (sizes["Q"] - 1) * layer.stride + layer.S
            return sizes["C"] * ih * iw
        return sizes["K"] * sizes["P"] * sizes["Q"]

    # -- single layer ----------------------------------------------------------------

    def evaluate_layer(self, mapping: Mapping, layer: ConvLayer) -> MaestroLayerCost:
        """Cost one layer under ``mapping`` (tiles clipped to layer dims)."""
        acc = self.acc
        dims: Dict[str, int] = {
            "K": layer.K,
            "C": 1 if layer.depthwise else layer.C,
            "P": layer.P,
            "Q": layer.Q,
        }
        # clip tiles to the layer and enforce L1 <= L2 <= dim
        t1 = {d: min(mapping.l1_tile(d), dims[d]) for d in LOOP_DIMS}
        t2 = {d: min(max(mapping.l2_tile(d), t1[d]), dims[d]) for d in LOOP_DIMS}

        # buffer footprints, added in a plain loop rather than with sum(),
        # which Python 3.12+ compensates for floats
        l1_sizes = {d: float(t1[d]) for d in LOOP_DIMS}
        l2_sizes = {d: float(t2[d]) for d in LOOP_DIMS}
        l1_fill = l2_fill = 0.0
        for t in _TENSOR_DIMS:
            l1_fill += self._tensor_words(t, l1_sizes, layer)
            l2_fill += self._tensor_words(t, l2_sizes, layer)
        if l1_fill > acc.l1_words or l2_fill > acc.l2_words:
            return MaestroLayerCost(
                layer=layer.name, feasible=False,
                cycles=MAESTRO_INFEASIBLE, runtime_ms=MAESTRO_INFEASIBLE,
                energy_mj=MAESTRO_INFEASIBLE, dram_words=MAESTRO_INFEASIBLE,
                l2_words=MAESTRO_INFEASIBLE, pes_used=0, utilization=0.0,
            )

        macs = float(layer.macs)
        trips2 = {d: math.ceil(dims[d] / t2[d]) for d in LOOP_DIMS}   # DRAM->L2
        trips1 = {d: math.ceil(t2[d] / t1[d]) for d in LOOP_DIMS}     # L2->L1
        n_l2_iters = math.prod(trips2.values())

        # spatial mapping: the parallel dim's L2 tile is split into L1-tile
        # chunks across clusters of PEs
        par = mapping.parallel_dim
        spatial_ways = math.ceil(t2[par] / t1[par])
        pes_used = min(spatial_ways * mapping.cluster, acc.num_pes)
        utilization = pes_used / acc.num_pes

        # traffic
        dram = 0.0
        l2 = 0.0
        for tensor in _TENSOR_DIMS:
            full = self._tensor_words(tensor, {d: float(dims[d]) for d in LOOP_DIMS}, layer)
            tile2 = self._tensor_words(tensor, {d: float(t2[d]) for d in LOOP_DIMS}, layer)
            dram += full * self._refetch_multiplier(mapping.order, tensor, trips2)
            l2 += tile2 * self._refetch_multiplier(mapping.order, tensor, trips1) * n_l2_iters
        # outputs are also written back once
        dram += dims["K"] * dims["P"] * dims["Q"]

        # the parallel dim's spatial split removes its temporal trips at L1
        compute_cycles = macs / max(pes_used, 1)
        dram_cycles = dram / acc.dram_bw
        l2_cycles = l2 / acc.l2_bw
        cycles = max(compute_cycles, dram_cycles, l2_cycles)

        l1_accesses = 3.0 * macs
        energy_pj = (
            macs * acc.e_mac_pj
            + l1_accesses * acc.e_l1_pj
            + l2 * acc.e_l2_pj
            + dram * acc.e_dram_pj
        )
        runtime_ms = cycles / (acc.clock_ghz * 1e9) * 1e3
        return MaestroLayerCost(
            layer=layer.name, feasible=True,
            cycles=cycles, runtime_ms=runtime_ms,
            energy_mj=energy_pj * 1e-9,
            dram_words=dram, l2_words=l2,
            pes_used=pes_used, utilization=utilization,
        )

    # -- whole network -----------------------------------------------------------------

    def evaluate_network(
        self, mapping: Mapping, layers: Sequence[ConvLayer]
    ) -> Dict[str, float]:
        """Sum layer costs into the MaestroGym observation:
        runtime (ms), throughput (GMACs/s), energy (mJ), area (mm^2)."""
        runtime = 0.0
        energy = 0.0
        feasible = True
        total_macs = 0.0
        for layer in layers:
            cost = self.evaluate_layer(mapping, layer)
            feasible &= cost.feasible
            runtime += cost.runtime_ms * layer.repeat
            energy += cost.energy_mj * layer.repeat
            total_macs += layer.macs * layer.repeat
        throughput = total_macs / (runtime * 1e6) if runtime > 0 else 0.0
        return {
            "runtime": runtime,
            "throughput": throughput,
            "energy": energy,
            "area": self.acc.area_mm2,
            "feasible": float(feasible),
        }
