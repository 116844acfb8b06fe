"""Area and energy accounting for the three system designs.

Unit constants are 45 nm synthesis/measurement numbers treated as data:
stochastic-rate units (LFSR, comparator, ASC, app logic)
burn energy per cycle at 1 GHz, ADC/DAC per conversion, and memory cells
per access (the analog cell with distinct read/write energies).  _units is
the one inventory of each design's units and how each is charged; area_report
and energy_report are its two columns.  Reports group the units into input
layer (memory + ADC), conversion (DSC, DAC + ASC, or ASC), and stochastic
logic.
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
    energy_pJ: float      # per cycle, per conversion, or per read
    # per-access units may charge writes differently from reads
    write_energy_pJ: float | None = None

    def __post_init__(self):
        _check_nonnegative_finite("unit costs", area_um2=self.area_um2, energy_pJ=self.energy_pJ,
                                  write_energy_pJ=self.write_pJ)

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
    # stochastic input streams: comparators on conv-lfsr, ASCs otherwise; also
    # the operand count energy_report charges when it is given none
    n_streams: int
    n_lfsr: int
    mem_area_digital_um2: float
    mem_area_analog_um2: float

    def __post_init__(self):
        _check_nonnegative_finite(
            "profile counts and areas", n_streams=self.n_streams, n_lfsr=self.n_lfsr,
            mem_area_digital_um2=self.mem_area_digital_um2,
            mem_area_analog_um2=self.mem_area_analog_um2)


_PROFILE_TABLE: dict[AppKind, AppProfile] = {p.app: p for p in (
    AppProfile(app=AppKind.ROBERT, n_streams=5, n_lfsr=5,
               mem_area_digital_um2=21.0, mem_area_analog_um2=183.0),
    AppProfile(app=AppKind.MEDIAN, n_streams=10, n_lfsr=10,
               mem_area_digital_um2=38.0, mem_area_analog_um2=336.0),
    AppProfile(app=AppKind.FRAME, n_streams=4, n_lfsr=2,
               mem_area_digital_um2=17.0, mem_area_analog_um2=153.0),
    AppProfile(app=AppKind.GAMMA, n_streams=8, n_lfsr=2,
               mem_area_digital_um2=35.0, mem_area_analog_um2=306.0),
    AppProfile(app=AppKind.KDE, n_streams=42, n_lfsr=11,
               mem_area_digital_um2=122.0, mem_area_analog_um2=1071.0),
)}


def default_profile(app: AppKind) -> AppProfile:
    return _PROFILE_TABLE[app]


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


def _units(design: SystemDesign, profile: AppProfile, costs: dict[str, UnitCost] | None = None,
           length: int = 0, n: int = 0, m: AccessMultipliers = AccessMultipliers()
           ) -> list[tuple[str, str, float, float]]:
    """(unit, group, area_um2, energy_pJ) of every unit of design, in report
    order: memory, adc (conv designs), then dsc, or dac (conv-mtj) and asc,
    then logic.  Energy is per pixel: per-cycle units run for `length` cycles,
    and each of n operands is written once and read once, and converted once
    by the ADC on the conv designs and by the DAC on conv-mtj, each event
    scaled by its multiplier in m.  Area depends on neither length, n nor m."""
    c = costs or DEFAULT_UNIT_COSTS
    conv = design is not SystemDesign.STOCHMEM
    cell = c["sram_cell" if conv else "analog_cell"]
    units = [("memory", GROUP_INPUT,
              profile.mem_area_digital_um2 if conv else profile.mem_area_analog_um2,
              cell.energy_pJ * (n * m.read) + cell.write_pJ * (n * m.write))]
    if conv:
        adc = c["adc_10bit"]
        units.append(("adc", GROUP_INPUT, adc.area_um2, adc.energy_pJ * (n * m.adc)))
    if design is SystemDesign.CONV_LFSR:
        lfsr, cmp = c["lfsr_10bit"], c["comparator_10bit"]
        units.append(("dsc", GROUP_CONVERSION,
                      lfsr.area_um2 * profile.n_lfsr + cmp.area_um2 * profile.n_streams,
                      (lfsr.energy_pJ * profile.n_lfsr
                       + cmp.energy_pJ * profile.n_streams) * length))
    else:
        if design is SystemDesign.CONV_MTJ:
            dac = c["dac_8bit"]
            units.append(("dac", GROUP_CONVERSION, dac.area_um2, dac.energy_pJ * (n * m.dac)))
        asc = c["asc"]
        units.append(("asc", GROUP_CONVERSION, asc.area_um2 * profile.n_streams,
                      asc.energy_pJ * profile.n_streams * length))
    logic = c[f"logic_{profile.app.value}"]
    units.append(("logic", GROUP_LOGIC, logic.area_um2, logic.energy_pJ * length))
    return units


def area_report(design: SystemDesign, profile: AppProfile,
                costs: dict[str, UnitCost] | None = None) -> CostReport:
    """Area in um^2 of every unit of design."""
    return CostReport([(unit, group, area)
                       for unit, group, area, _ in _units(design, profile, costs)])


def energy_report(design: SystemDesign, profile: AppProfile, length: int,
                  n_operands: int | None = None,
                  multipliers: AccessMultipliers = AccessMultipliers(),
                  costs: dict[str, UnitCost] | None = None) -> CostReport:
    """Per-pixel energy in pJ of every unit of design, for streams of `length`
    cycles and n_operands stored operands (default profile.n_streams)."""
    n = profile.n_streams if n_operands is None else n_operands
    _check_nonnegative_finite("stream length and operand count", length=length, n_operands=n)
    return CostReport([(unit, group, energy) for unit, group, _, energy
                       in _units(design, profile, costs, length, n, multipliers)])


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
