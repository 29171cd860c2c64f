"""Eyeriss-style accelerator architecture description (TimeloopGym).

The Fig. 3 TimeloopGym action space tunes the accelerator's PE array
dimensions, per-PE scratchpad sizes, shared global buffer, interconnect
bandwidths and clock. ``AcceleratorConfig`` is one design point; energy
constants follow the Eyeriss relative-cost hierarchy (register file <<
global buffer << DRAM).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping

from repro.core.errors import SimulationError
from repro.core.spaces import CompositeSpace, Discrete

__all__ = ["AcceleratorConfig", "EnergyModel", "accelerator_space", "EYERISS_LIKE"]


@dataclass(frozen=True)
class EnergyModel:
    """Energy per event in picojoules (16-bit words)."""

    e_mac: float = 0.2
    e_spad: float = 0.15       # per register-file/scratchpad word access
    e_glb: float = 1.8         # per global-buffer word access
    e_dram: float = 35.0       # per DRAM word access
    e_noc: float = 0.5         # per word traversing the array NoC

    def __post_init__(self) -> None:
        if not (self.e_spad < self.e_glb < self.e_dram):
            raise SimulationError(
                "energy hierarchy must satisfy spad < glb < dram"
            )


@dataclass(frozen=True)
class AcceleratorConfig:
    """One DNN accelerator design point (Eyeriss-like template)."""

    pe_rows: int = 12
    pe_cols: int = 14
    ifmap_spad_entries: int = 24       # words per PE
    weight_spad_entries: int = 224     # words per PE
    psum_spad_entries: int = 24        # words per PE
    glb_kb: int = 128
    glb_bw: int = 16                   # words per cycle
    dram_bw: int = 8                   # words per cycle
    clock_ghz: float = 1.0
    word_bytes: int = 2

    def __post_init__(self) -> None:
        for attr in (
            "pe_rows", "pe_cols", "ifmap_spad_entries", "weight_spad_entries",
            "psum_spad_entries", "glb_kb", "glb_bw", "dram_bw",
        ):
            if getattr(self, attr) < 1:
                raise SimulationError(f"{attr} must be >= 1")
        if not (math.isfinite(self.clock_ghz) and self.clock_ghz > 0):
            raise SimulationError(
                f"clock_ghz must be positive and finite, got {self.clock_ghz!r}"
            )
        if self.word_bytes not in (1, 2, 4):
            raise SimulationError("word_bytes must be 1, 2 or 4")

    @property
    def num_pes(self) -> int:
        return self.pe_rows * self.pe_cols

    @property
    def glb_words(self) -> int:
        return self.glb_kb * 1024 // self.word_bytes

    @property
    def weight_l1_words(self) -> int:
        """Aggregate weight scratchpad capacity across the array."""
        return self.weight_spad_entries * self.num_pes

    @property
    def ifmap_l1_words(self) -> int:
        return self.ifmap_spad_entries * self.num_pes

    @property
    def psum_l1_words(self) -> int:
        return self.psum_spad_entries * self.num_pes

    @property
    def area_mm2(self) -> float:
        """Analytical area: PEs + scratchpads + global buffer + overhead."""
        spad_bytes_per_pe = self.word_bytes * (
            self.ifmap_spad_entries + self.weight_spad_entries + self.psum_spad_entries
        )
        pe_area = self.num_pes * (0.010 + spad_bytes_per_pe * 2.0e-5)
        glb_area = self.glb_kb * 0.020
        noc_area = 0.002 * self.num_pes
        return pe_area + glb_area + noc_area + 1.5

    @classmethod
    def from_action(cls, action: Mapping[str, Any]) -> "AcceleratorConfig":
        """Build a config from a TimeloopGym action dict."""
        return cls(
            pe_rows=int(action["NumPEsX"]),
            pe_cols=int(action["NumPEsY"]),
            ifmap_spad_entries=int(action["IfmapSpadEntries"]),
            weight_spad_entries=int(action["WeightsSpadEntries"]),
            psum_spad_entries=int(action["PsumSpadEntries"]),
            glb_kb=int(action["GlbSizeKB"]),
            glb_bw=int(action["GlbBwWordsPerCycle"]),
            dram_bw=int(action["DramBwWordsPerCycle"]),
            clock_ghz=float(action["ClockGHz"]),
        )

    def to_action(self) -> Dict[str, Any]:
        return {
            "NumPEsX": self.pe_rows,
            "NumPEsY": self.pe_cols,
            "IfmapSpadEntries": self.ifmap_spad_entries,
            "WeightsSpadEntries": self.weight_spad_entries,
            "PsumSpadEntries": self.psum_spad_entries,
            "GlbSizeKB": self.glb_kb,
            "GlbBwWordsPerCycle": self.glb_bw,
            "DramBwWordsPerCycle": self.dram_bw,
            "ClockGHz": self.clock_ghz,
        }


#: The Eyeriss-like reference design the paper searches around (§6.1).
EYERISS_LIKE = AcceleratorConfig()


def accelerator_space() -> CompositeSpace:
    """The TimeloopGym action space (paper Fig. 3)."""
    return CompositeSpace(
        [
            Discrete.pow2("NumPEsX", 2, 32),
            Discrete.pow2("NumPEsY", 2, 32),
            Discrete.pow2("IfmapSpadEntries", 8, 128),
            Discrete.pow2("WeightsSpadEntries", 16, 512),
            Discrete.pow2("PsumSpadEntries", 8, 128),
            Discrete.pow2("GlbSizeKB", 32, 2048),
            Discrete.pow2("GlbBwWordsPerCycle", 4, 64),
            Discrete.pow2("DramBwWordsPerCycle", 2, 32),
            Discrete("ClockGHz", low=0.6, high=1.8, step=0.2, integer=False),
        ]
    )
