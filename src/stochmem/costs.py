"""Area and energy accounting for the three system designs.

Unit constants are 45 nm synthesis/measurement numbers treated as data:
stochastic-rate units (LFSR, comparator, ASC, app logic)
burn energy per cycle at 1 GHz, ADC/DAC per conversion, and memory cells
per access (a CellCost prices a read and a write separately).  Each record's
dataclass fields are its whole schema: the value checks and config.load_costs
read them, and nothing restates them.  _units is the one inventory of each
design's units and how each is charged under a CostModel (unit costs, app
profiles, access multipliers); area_report and energy_report are its two
columns.  Reports group the units into input layer (memory + ADC), conversion
(DSC, DAC + ASC, or ASC), and stochastic logic.
"""

from __future__ import annotations

import enum
import math
from dataclasses import asdict, dataclass, field

from .circuits import AppKind


def _check_nonnegative_finite(what: str, **values: float) -> None:
    for name, value in values.items():
        if not 0 <= value < math.inf:
            raise ValueError(f"{what} must be nonnegative and finite; {name} is {value}")


@dataclass(frozen=True)
class UnitCost:
    area_um2: float
    energy_pJ: float      # per cycle, per conversion, or per read

    def __post_init__(self):
        _check_nonnegative_finite("unit costs", **asdict(self))


@dataclass(frozen=True)
class CellCost(UnitCost):
    """A memory cell: energy_pJ is charged per read, write_energy_pJ per write."""

    write_energy_pJ: float


DEFAULT_UNIT_COSTS: dict[str, UnitCost] = {
    "adc_10bit": UnitCost(50_000.0, 20.0),
    "sram_cell": CellCost(0.35, 10.0, 10.0),
    "lfsr_10bit": UnitCost(194.0, 0.355),
    "comparator_10bit": UnitCost(96.0, 0.041),
    "dac_8bit": UnitCost(16_000.0, 64.0),
    "analog_cell": CellCost(58.7, 10.0, 100.0),
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
    # stochastic input streams: comparators on conv-lfsr, ASCs otherwise; also
    # the operand count of a run's energy_default
    n_streams: int
    n_lfsr: int
    mem_area_digital_um2: float
    mem_area_analog_um2: float

    def __post_init__(self):
        _check_nonnegative_finite("profile counts and areas", **asdict(self))


_PROFILE_TABLE: dict[AppKind, AppProfile] = {
    AppKind.ROBERT: AppProfile(5, 5, 21.0, 183.0),
    AppKind.MEDIAN: AppProfile(10, 10, 38.0, 336.0),
    AppKind.FRAME: AppProfile(4, 2, 17.0, 153.0),
    AppKind.GAMMA: AppProfile(8, 2, 35.0, 306.0),
    AppKind.KDE: AppProfile(42, 11, 122.0, 1071.0),
}


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
        _check_nonnegative_finite("access multipliers", **asdict(self))


@dataclass(frozen=True)
class CostModel:
    """Every priced value: unit costs by name, app profiles and access multipliers."""

    units: dict[str, UnitCost] = field(default_factory=DEFAULT_UNIT_COSTS.copy)
    profiles: dict[AppKind, AppProfile] = field(default_factory=_PROFILE_TABLE.copy)
    multipliers: AccessMultipliers = AccessMultipliers()


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


def _units(design: SystemDesign, app: AppKind, model: CostModel, length: int = 0, n: int = 0
           ) -> list[tuple[str, str, float, float]]:
    """(unit, group, area_um2, energy_pJ) of every unit of design, in report
    order: memory, adc (conv designs), then dsc, or dac (conv-mtj) and asc,
    then logic.  Energy is per pixel: per-cycle units run for `length` cycles,
    and each of n operands is written once and read once, and converted once
    by the ADC on the conv designs and by the DAC on conv-mtj, each event
    scaled by its model multiplier.  Area depends on neither length, n nor m."""
    c, profile, m = model.units, model.profiles[app], model.multipliers
    conv = design is not SystemDesign.STOCHMEM
    cell = c["sram_cell" if conv else "analog_cell"]
    units = [("memory", GROUP_INPUT,
              profile.mem_area_digital_um2 if conv else profile.mem_area_analog_um2,
              cell.energy_pJ * (n * m.read) + cell.write_energy_pJ * (n * m.write))]
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
    logic = c[f"logic_{app.value}"]
    units.append(("logic", GROUP_LOGIC, logic.area_um2, logic.energy_pJ * length))
    return units


def area_report(design: SystemDesign, app: AppKind, model: CostModel = CostModel()) -> CostReport:
    """Area in um^2 of every unit of design."""
    return CostReport([(unit, group, area) for unit, group, area, _ in _units(design, app, model)])


def energy_report(design: SystemDesign, app: AppKind, length: int, n_operands: int,
                  model: CostModel = CostModel()) -> CostReport:
    """Per-pixel energy in pJ of every unit of design, for streams of `length`
    cycles and n_operands stored operands."""
    _check_nonnegative_finite("stream length and operand count", length=length,
                              n_operands=n_operands)
    return CostReport([(unit, group, energy) for unit, group, _, energy
                       in _units(design, app, model, length, n_operands)])


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
