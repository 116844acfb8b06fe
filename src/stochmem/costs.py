"""Area and energy accounting for the three system designs.

Unit constants are 45 nm synthesis/measurement numbers treated as data:
stochastic-rate units (LFSR, comparator, ASC, app logic)
burn energy per cycle at 1 GHz, ADC/DAC per conversion, and memory cells
per access (a CellCost prices a read and a write separately).  Each record's
dataclass fields are its whole schema: the value checks and config.load_costs
read them, and nothing restates them.  _units is the one inventory of each
design's units and how each is charged under a CostModel (unit costs, app
profiles, access multipliers); area_report and energy_report are its two
columns, and each rejects a unit whose value is not finite (finite prices
whose product leaves the float range), naming the cost keys the unit reads,
and a total past the float range.
Reports group the units into input layer (memory + ADC), conversion (DSC,
DAC + ASC, or ASC), and stochastic logic.
"""

from __future__ import annotations

import enum
import math
import sys
from dataclasses import asdict, dataclass, field

from .circuits import WIRING, AppKind


def _check_nonnegative_finite(what: str, **values: float) -> None:
    for name, value in values.items():
        # an int past the float range is below inf, but no price can be made of it
        if not 0 <= value <= sys.float_info.max:
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

    def __post_init__(self):
        # _units reads every default unit and prices both cells' writes, so a
        # missing unit or a plain UnitCost as a cell would fail only when priced
        for name, default in DEFAULT_UNIT_COSTS.items():
            if not isinstance(self.units.get(name), type(default)):
                raise ValueError(f"unit {name} must be a {type(default).__name__}, "
                                 f"got {self.units.get(name)!r}")
        if len(self.units) != len(DEFAULT_UNIT_COSTS):
            unknown = sorted(self.units.keys() - DEFAULT_UNIT_COSTS.keys())
            raise ValueError(f"unknown units {unknown}")
        for app in AppKind:
            if not isinstance(self.profiles.get(app), AppProfile):
                raise ValueError(f"the profile of {app.value} must be an AppProfile, "
                                 f"got {self.profiles.get(app)!r}")
        if len(self.profiles) != len(AppKind):
            raise ValueError(f"profiles are keyed by app, got {list(self.profiles)}")


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
           ) -> list[tuple[str, str, float, float, tuple[str, ...]]]:
    """(unit, group, area_um2, energy_pJ, keys) of every unit of design, in
    report order: memory, adc (conv designs), then dsc, or dac (conv-mtj) and
    asc, then logic; keys are the cost-file keys its two values read.  Energy
    is per pixel: per-cycle units run for `length` cycles, and each of n
    operands is written once and read once, and converted once by the ADC on
    the conv designs and by the DAC on conv-mtj, each event scaled by its
    model multiplier.  Area depends on neither length, n nor m."""
    c, profile, m = model.units, model.profiles[app], model.multipliers
    conv = design is not SystemDesign.STOCHMEM
    cell, mem = ("sram_cell", "digital") if conv else ("analog_cell", "analog")
    at = f"profile.{app.value}."
    units = [("memory", GROUP_INPUT, getattr(profile, f"mem_area_{mem}_um2"),
              c[cell].energy_pJ * (n * m.read) + c[cell].write_energy_pJ * (n * m.write),
              (f"unit.{cell}.*", f"{at}mem_area_{mem}_um2", "mult.read", "mult.write"))]
    if conv:
        adc = c["adc_10bit"]
        units.append(("adc", GROUP_INPUT, adc.area_um2, adc.energy_pJ * (n * m.adc),
                      ("unit.adc_10bit.*", "mult.adc")))
    if design is SystemDesign.CONV_LFSR:
        lfsr, cmp = c["lfsr_10bit"], c["comparator_10bit"]
        units.append(("dsc", GROUP_CONVERSION,
                      lfsr.area_um2 * profile.n_lfsr + cmp.area_um2 * profile.n_streams,
                      (lfsr.energy_pJ * profile.n_lfsr
                       + cmp.energy_pJ * profile.n_streams) * length,
                      ("unit.lfsr_10bit.*", "unit.comparator_10bit.*", f"{at}n_lfsr",
                       f"{at}n_streams")))
    else:
        if design is SystemDesign.CONV_MTJ:
            dac = c["dac_8bit"]
            units.append(("dac", GROUP_CONVERSION, dac.area_um2, dac.energy_pJ * (n * m.dac),
                          ("unit.dac_8bit.*", "mult.dac")))
        asc = c["asc"]
        units.append(("asc", GROUP_CONVERSION, asc.area_um2 * profile.n_streams,
                      asc.energy_pJ * profile.n_streams * length,
                      ("unit.asc.*", f"{at}n_streams")))
    logic = c[f"logic_{app.value}"]
    units.append(("logic", GROUP_LOGIC, logic.area_um2, logic.energy_pJ * length,
                  (f"unit.logic_{app.value}.*",)))
    return units


def _report(units: list[tuple], column: int, what: str) -> CostReport:
    """The CostReport of one value column of _units; a ValueError names a
    unit whose value is not finite and the cost keys it reads, or a total
    past the float range."""
    for unit in units:
        if not math.isfinite(unit[column]):
            raise ValueError(f"the {what} of unit {unit[0]} is {unit[column]}; it reads the "
                             f"cost keys {', '.join(unit[4])}")
    report = CostReport([(unit[0], unit[1], unit[column]) for unit in units])
    if not math.isfinite(report.total):
        raise ValueError(f"the {what} total is {report.total}: each unit's {what} is finite, "
                         f"but their sum is not")
    return report


def area_report(design: SystemDesign, app: AppKind, model: CostModel = CostModel()) -> CostReport:
    """Area in um^2 of every unit of design."""
    return _report(_units(design, app, model), 2, "area")


def energy_report(design: SystemDesign, app: AppKind, length: int, n_operands: int | None = None,
                  model: CostModel = CostModel()) -> CostReport:
    """Per-pixel energy in pJ of every unit of design, for streams of `length`
    cycles and n_operands stored operands: by default one per operand slot of
    the app's WIRING row, the operands a run stores, so that run and stochmem
    cost print one energy."""
    n_operands = WIRING[app].slots if n_operands is None else n_operands
    _check_nonnegative_finite("stream length and operand count", length=length,
                              n_operands=n_operands)
    return _report(_units(design, app, model, length, n_operands), 3, "energy")


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
