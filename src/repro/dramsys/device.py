"""DRAM device timing and power models.

The reproduction's stand-in for DRAMSys4.0's device layer. Timing
parameters follow JEDEC DDR conventions (all values in nanoseconds);
energy parameters follow the DRAMPower current-based methodology,
pre-multiplied into per-command energies at the *rank* level (device
energy x devices-per-rank), so that total power lands in the realistic
0.5–3 W range the paper's 1 W target lives in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from repro.core.errors import SimulationError

__all__ = [
    "DramTimings",
    "DramEnergy",
    "DramDevice",
    "ADDRESS_MAPPINGS",
    "DDR4_2400",
    "DDR3_1600",
    "LPDDR4_3200",
]


def _require_finite(params) -> None:
    """Refuse a NaN or infinite field of a timing or energy dataclass: the
    simulator's clock never gets past a non-finite time, so the run would
    not end, and a non-finite energy poisons every result."""
    for field in fields(params):
        value = getattr(params, field.name)
        if not math.isfinite(value):
            raise SimulationError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class DramTimings:
    """JEDEC-style timing parameters, in nanoseconds.

    Attributes
    ----------
    tck:
        Clock period.
    trcd:
        ACT -> column command delay.
    trp:
        PRE -> ACT delay.
    tcl:
        Read column command -> first data (CAS latency).
    tcwd:
        Write column command -> first data (CAS write delay).
    tras:
        ACT -> PRE minimum.
    trc:
        ACT -> ACT minimum, same bank.
    trfc:
        All-bank refresh command duration.
    trefi:
        Average refresh interval.
    twr:
        Write recovery (end of write burst -> PRE).
    twtr:
        Write burst -> read command turnaround.
    trtw:
        Read -> write turnaround on the data bus.
    burst_length:
        Number of beats per access (data transferred each half cycle).
    """

    tck: float = 0.833
    trcd: float = 13.32
    trp: float = 13.32
    tcl: float = 13.32
    tcwd: float = 10.0
    tras: float = 32.0
    trc: float = 45.32
    trfc: float = 350.0
    trefi: float = 7800.0
    twr: float = 15.0
    twtr: float = 7.5
    trtw: float = 2.5
    burst_length: int = 8

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.tck <= 0:
            raise SimulationError("tck must be positive")
        for field in fields(self):
            value = getattr(self, field.name)
            if value < 0:
                raise SimulationError(f"{field.name} must be non-negative, got {value}")
        if self.trc < self.tras:
            raise SimulationError("trc must be >= tras")
        if self.trefi <= self.trfc:
            raise SimulationError("trefi must exceed trfc")
        if self.burst_length not in (4, 8, 16):
            raise SimulationError("burst_length must be 4, 8 or 16")
        for name in ("burst_time", "row_miss_penalty", "row_conflict_penalty"):
            value = getattr(self, name)
            if not math.isfinite(value):  # finite fields can overflow
                raise SimulationError(f"{name} must be finite, got {value}")

    @property
    def burst_time(self) -> float:
        """Data bus occupancy of one burst (double data rate)."""
        return self.burst_length / 2 * self.tck

    @property
    def row_miss_penalty(self) -> float:
        """Extra latency of a closed-row access over a row hit."""
        return self.trcd

    @property
    def row_conflict_penalty(self) -> float:
        """Extra latency of a conflicting access over a row hit."""
        return self.trp + self.trcd


@dataclass(frozen=True)
class DramEnergy:
    """Per-command energies in nanojoules, at rank granularity.

    Derived from DRAMPower-style IDD currents: e.g.
    ``e_act = (IDD0 - IDD3N) * VDD * tRC * devices_per_rank``.
    """

    e_act: float = 14.4         # one ACT+PRE pair
    e_read: float = 7.2         # one read burst
    e_write: float = 7.9        # one write burst
    e_refresh: float = 810.0    # one all-bank refresh
    p_background_active: float = 0.81   # W, >=1 bank open
    p_background_idle: float = 0.54     # W, all banks precharged

    def __post_init__(self) -> None:
        _require_finite(self)
        for name in ("e_act", "e_read", "e_write", "e_refresh"):
            if getattr(self, name) < 0:
                raise SimulationError(f"{name} must be non-negative")
        if self.p_background_idle > self.p_background_active:
            raise SimulationError("idle background power cannot exceed active")


#: Address mapping schemes (a DRAMSys configuration axis):
#: ``bank_interleaved`` stripes consecutive cache lines across banks
#: (bank parallelism + per-bank row locality for streams);
#: ``row_interleaved`` keeps consecutive lines in the same row of the
#: same bank until the row is exhausted (maximum row locality, no bank
#: parallelism for streams).
ADDRESS_MAPPINGS = ("bank_interleaved", "row_interleaved")


@dataclass(frozen=True)
class DramDevice:
    """A DRAM rank: geometry + timings + energies.

    The default address mapping is bank-interleaved: cache lines are
    striped across banks; within a bank, ``lines_per_row`` consecutive
    lines share a row. This gives streaming workloads both bank
    parallelism and row locality, and random workloads frequent
    conflicts — the contrast the DRAM DSE experiments rely on.
    """

    name: str = "DDR4-2400"
    banks: int = 16
    lines_per_row: int = 128        # 8 KiB row / 64 B line
    line_bytes: int = 64
    timings: DramTimings = DramTimings()
    energy: DramEnergy = DramEnergy()
    address_mapping: str = "bank_interleaved"

    def __post_init__(self) -> None:
        if self.banks < 1 or self.banks & (self.banks - 1):
            raise SimulationError("banks must be a positive power of two")
        if self.lines_per_row < 1:
            raise SimulationError("lines_per_row must be positive")
        line_bytes = self.line_bytes
        if not isinstance(line_bytes, int) or isinstance(line_bytes, bool) or line_bytes < 1:
            raise SimulationError(f"line_bytes must be an integer >= 1, got {line_bytes!r}")
        if self.address_mapping not in ADDRESS_MAPPINGS:
            raise SimulationError(
                f"address_mapping must be one of {ADDRESS_MAPPINGS}"
            )

    def map_address(self, address: int) -> tuple[int, int]:
        """Return ``(bank, row)`` for a byte address."""
        line = address // self.line_bytes
        if self.address_mapping == "bank_interleaved":
            bank = line % self.banks
            row = (line // self.banks) // self.lines_per_row
        else:  # row_interleaved
            row_index = line // self.lines_per_row
            bank = row_index % self.banks
            row = row_index // self.banks
        return bank, row


#: DDR4-2400 rank, the default device (matches DRAMSys' stock DDR4 config).
DDR4_2400 = DramDevice()

#: Slower DDR3 profile for cross-device experiments.
DDR3_1600 = DramDevice(
    name="DDR3-1600",
    banks=8,
    timings=DramTimings(
        tck=1.25, trcd=13.75, trp=13.75, tcl=13.75, tcwd=10.0,
        tras=35.0, trc=48.75, trfc=260.0, trefi=7800.0,
        twr=15.0, twtr=7.5, trtw=2.5, burst_length=8,
    ),
    energy=DramEnergy(
        e_act=10.0, e_read=5.2, e_write=5.6, e_refresh=380.0,
        p_background_active=0.55, p_background_idle=0.38,
    ),
)

#: Low-power mobile profile.
LPDDR4_3200 = DramDevice(
    name="LPDDR4-3200",
    banks=8,
    timings=DramTimings(
        tck=0.625, trcd=18.0, trp=18.0, tcl=17.5, tcwd=9.0,
        tras=42.0, trc=60.0, trfc=280.0, trefi=3900.0,
        twr=18.0, twtr=10.0, trtw=3.0, burst_length=16,
    ),
    energy=DramEnergy(
        e_act=4.5, e_read=2.2, e_write=2.5, e_refresh=210.0,
        p_background_active=0.18, p_background_idle=0.09,
    ),
)
