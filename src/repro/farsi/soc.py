"""SoC hardware model — PE catalog, NoC, memory (the FARSI stand-in).

A design point allocates a processing element (or nothing) to each of
``N_SLOTS`` sockets and sizes the shared bus and memory system. PE types
trade throughput against power and area, and carry per-task-kind
speedups, so the right SoC depends on the workload's task mix — the
heterogeneity FARSI's DSE is about.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Tuple

from repro.core.errors import SimulationError
from repro.core.spaces import Categorical, CompositeSpace, Discrete

__all__ = ["PEType", "PE_CATALOG", "SoCConfig", "soc_space", "N_SLOTS"]

#: Number of PE sockets in the SoC template.
N_SLOTS = 6


@dataclass(frozen=True)
class PEType:
    """One processing element option for a socket."""

    name: str
    gops: float                      # base throughput, generic ops
    active_mw: float                 # power while executing
    idle_mw: float                   # static power when instantiated
    area_mm2: float
    speedups: Mapping[str, float]    # per task-kind multiplier

    def speedup(self, kind: str) -> float:
        return self.speedups.get(kind, 1.0)

    def exec_time_ms(self, mops: float, kind: str) -> float:
        """Execution time of a task of ``mops`` mega-ops on this PE."""
        effective_gops = self.gops * self.speedup(kind)
        return mops / (effective_gops * 1e3)


PE_CATALOG: Dict[str, PEType] = {
    "LittleCore": PEType(
        "LittleCore", gops=4.0, active_mw=15.0, idle_mw=1.0, area_mm2=0.8,
        speedups={"generic": 1.0, "dsp": 1.0, "imaging": 1.0, "crypto": 1.0},
    ),
    "BigCore": PEType(
        "BigCore", gops=16.0, active_mw=120.0, idle_mw=8.0, area_mm2=3.5,
        speedups={"generic": 1.0, "dsp": 1.0, "imaging": 1.0, "crypto": 1.0},
    ),
    "DSP": PEType(
        "DSP", gops=8.0, active_mw=40.0, idle_mw=2.0, area_mm2=1.6,
        speedups={"generic": 0.8, "dsp": 6.0, "imaging": 2.0, "crypto": 1.0},
    ),
    "ImagingIP": PEType(
        "ImagingIP", gops=10.0, active_mw=30.0, idle_mw=1.5, area_mm2=1.2,
        speedups={"generic": 0.25, "dsp": 1.5, "imaging": 10.0, "crypto": 0.5},
    ),
}

#: Socket options: any catalog PE, or leave the socket empty.
SLOT_OPTIONS = tuple(PE_CATALOG) + ("None",)


@dataclass(frozen=True)
class SoCConfig:
    """One SoC design point: socket assignment + interconnect + memory."""

    slots: Tuple[str, ...] = ("BigCore", "DSP", "ImagingIP", "None", "None", "None")
    noc_bus_width_bits: int = 64
    noc_freq_ghz: float = 0.8
    mem_freq_ghz: float = 0.8
    mem_channels: int = 2

    def __post_init__(self) -> None:
        if len(self.slots) != N_SLOTS:
            raise SimulationError(f"expected {N_SLOTS} PE slots, got {len(self.slots)}")
        for s in self.slots:
            if s not in SLOT_OPTIONS:
                raise SimulationError(f"unknown slot option {s!r}; valid: {SLOT_OPTIONS}")
        # every check refuses NaN and infinity, which would otherwise
        # pass a plain comparison and reach the schedule
        width = self.noc_bus_width_bits
        if not (math.isfinite(width) and width >= 8):
            raise SimulationError(
                f"noc_bus_width_bits must be finite and >= 8, got {width!r}"
            )
        for freq in (self.noc_freq_ghz, self.mem_freq_ghz):
            if not (math.isfinite(freq) and freq > 0):
                raise SimulationError(
                    f"frequencies must be finite and positive, got {freq!r}"
                )
        channels = self.mem_channels
        if not (math.isfinite(channels) and channels >= 1):
            raise SimulationError(
                f"mem_channels must be finite and >= 1, got {channels!r}"
            )

    # -- derived hardware properties ------------------------------------------------

    @property
    def pes(self) -> Tuple[PEType, ...]:
        """Instantiated PEs (empty sockets skipped)."""
        return tuple(PE_CATALOG[s] for s in self.slots if s != "None")

    @property
    def noc_bw_gbps(self) -> float:
        return self.noc_bus_width_bits / 8.0 * self.noc_freq_ghz

    @property
    def mem_bw_gbps(self) -> float:
        return self.mem_channels * 2.0 * self.mem_freq_ghz

    @property
    def transfer_bw_gbps(self) -> float:
        """Effective PE-to-PE transfer bandwidth (bus and memory in series)."""
        return min(self.noc_bw_gbps, self.mem_bw_gbps)

    @property
    def static_mw(self) -> float:
        # a plain loop, not sum(): Python 3.12+ compensates float sums
        pe_idle = 0.0
        for pe in self.pes:
            pe_idle += pe.idle_mw
        noc = 2.0 + 0.05 * self.noc_bus_width_bits * self.noc_freq_ghz
        mem = 5.0 + 2.0 * self.mem_channels * self.mem_freq_ghz
        return pe_idle + noc + mem

    @property
    def area_mm2(self) -> float:
        pe_area = 0.0
        for pe in self.pes:
            pe_area += pe.area_mm2
        noc_area = 0.3 + 0.002 * self.noc_bus_width_bits
        mem_area = 0.8 * self.mem_channels
        return pe_area + noc_area + mem_area

    # -- action codec -----------------------------------------------------------------

    @classmethod
    def from_action(cls, action: Mapping[str, Any]) -> "SoCConfig":
        return cls(
            slots=tuple(action[f"PE_Slot{i}"] for i in range(N_SLOTS)),
            noc_bus_width_bits=int(action["NoC_BusWidth"]),
            noc_freq_ghz=float(action["NoC_Freq"]),
            mem_freq_ghz=float(action["Mem_Freq"]),
            mem_channels=int(action["Mem_Channels"]),
        )

    def to_action(self) -> Dict[str, Any]:
        action: Dict[str, Any] = {
            f"PE_Slot{i}": self.slots[i] for i in range(N_SLOTS)
        }
        action.update(
            NoC_BusWidth=self.noc_bus_width_bits,
            NoC_Freq=self.noc_freq_ghz,
            Mem_Freq=self.mem_freq_ghz,
            Mem_Channels=self.mem_channels,
        )
        return action


def soc_space() -> CompositeSpace:
    """The FARSIGym action space (paper Fig. 3)."""
    parameters = [
        Categorical(f"PE_Slot{i}", SLOT_OPTIONS) for i in range(N_SLOTS)
    ]
    parameters += [
        Discrete.pow2("NoC_BusWidth", 16, 256),
        Discrete("NoC_Freq", low=0.2, high=1.6, step=0.2, integer=False),
        Discrete("Mem_Freq", low=0.2, high=1.6, step=0.2, integer=False),
        Discrete("Mem_Channels", low=1, high=4, step=1),
    ]
    return CompositeSpace(parameters)
