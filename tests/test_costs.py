from collections import Counter
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from stochmem.circuits import WIRING, AppKind
from stochmem.cli import main
from stochmem.config import load_costs
from stochmem.costs import (DEFAULT_UNIT_COSTS, AccessMultipliers, CellCost, CostModel,
                            SystemDesign, UnitCost, aggregate_reduction, area_report,
                            average_shares, energy_report, share_breakdown)
from stochmem.harness import ExperimentConfig, run_experiment

APPS = list(AppKind)
COST_FILES = Path(__file__).parent / "costs"
# the profile's stream count, the operand count the paper's energies charge
STREAMS = {app: p.n_streams for app, p in CostModel().profiles.items()}

# published per-app area totals in um^2
AREA_TOTALS = {
    (AppKind.ROBERT, SystemDesign.CONV_LFSR): 51810,
    (AppKind.ROBERT, SystemDesign.CONV_MTJ): 66435,
    (AppKind.ROBERT, SystemDesign.STOCHMEM): 597,
    (AppKind.MEDIAN, SystemDesign.CONV_LFSR): 58320,
    (AppKind.MEDIAN, SystemDesign.CONV_MTJ): 71570,
    (AppKind.MEDIAN, SystemDesign.STOCHMEM): 5868,
    (AppKind.FRAME, SystemDesign.CONV_LFSR): 51246,
    (AppKind.FRAME, SystemDesign.CONV_MTJ): 66534,
    (AppKind.FRAME, SystemDesign.STOCHMEM): 670,
    (AppKind.GAMMA, SystemDesign.CONV_LFSR): 51267,
    (AppKind.GAMMA, SystemDesign.CONV_MTJ): 66231,
    (AppKind.GAMMA, SystemDesign.STOCHMEM): 502,
    (AppKind.KDE, SystemDesign.CONV_LFSR): 64979,
    (AppKind.KDE, SystemDesign.CONV_MTJ): 75443,
    (AppKind.KDE, SystemDesign.STOCHMEM): 10392,
}


@pytest.mark.parametrize("app,design", list(AREA_TOTALS))
def test_area_totals_integer_exact(app, design):
    report = area_report(design, app)
    assert report.total == AREA_TOTALS[(app, design)]


def test_dsc_area_composition():
    robert = area_report(SystemDesign.CONV_LFSR, AppKind.ROBERT)
    dsc = dict((u, v) for u, _, v in robert.entries)["dsc"]
    assert dsc == 1450
    kde = area_report(SystemDesign.CONV_LFSR, AppKind.KDE)
    assert dict((u, v) for u, _, v in kde.entries)["dsc"] == 194 * 11 + 96 * 42 == 6166
    frame = area_report(SystemDesign.CONV_LFSR, AppKind.FRAME)
    assert dict((u, v) for u, _, v in frame.entries)["dsc"] == 772


def test_median_asc_area():
    rep = area_report(SystemDesign.CONV_MTJ, AppKind.MEDIAN)
    assert dict((u, v) for u, _, v in rep.entries)["asc"] == 150


def test_stochmem_gamma_total_decomposition():
    rep = area_report(SystemDesign.STOCHMEM, AppKind.GAMMA)
    parts = dict((u, v) for u, _, v in rep.entries)
    assert parts == {"memory": 306.0, "asc": 120.0, "logic": 76.0}
    assert rep.total == 502


def test_area_reduction_modes_bracket_published_value():
    stoch = [area_report(SystemDesign.STOCHMEM, a) for a in APPS]
    lfsr = [area_report(SystemDesign.CONV_LFSR, a) for a in APPS]
    # the published 93.7 % lies between the mean of per-app ratios (checked
    # here) and the ratio of summed totals, which the model does not report
    assert 93.5 <= aggregate_reduction(stoch, lfsr) <= 94.2


def test_area_share_averages():
    stoch = average_shares([area_report(SystemDesign.STOCHMEM, a)
                            for a in APPS])
    assert stoch["logic"] == pytest.approx(0.631, abs=0.02)
    assert stoch["conversion"] == pytest.approx(0.108, abs=0.02)
    lfsr = average_shares([area_report(SystemDesign.CONV_LFSR, a)
                           for a in APPS])
    assert lfsr["logic"] == pytest.approx(0.049, abs=0.02)
    assert lfsr["input_layer"] == pytest.approx(0.909, abs=0.02)


class TestEnergy:
    def test_robert_dsc_energy_per_pixel(self):
        rep = energy_report(SystemDesign.CONV_LFSR, AppKind.ROBERT, 1024, 5)
        dsc = dict((u, v) for u, _, v in rep.entries)["dsc"]
        assert dsc == pytest.approx(5 * (0.355 + 0.041) * 1024)
        assert dsc == pytest.approx(2027.52)

    def test_zero_length_leaves_only_event_terms(self):
        rep = energy_report(SystemDesign.CONV_LFSR, AppKind.ROBERT, 0, 5)
        parts = dict((u, v) for u, _, v in rep.entries)
        assert parts["dsc"] == 0.0
        assert parts["logic"] == 0.0
        assert parts["adc"] > 0.0

    def test_per_cycle_terms_linear_in_length(self):
        r1 = energy_report(SystemDesign.STOCHMEM, AppKind.GAMMA, 512, 8)
        r2 = energy_report(SystemDesign.STOCHMEM, AppKind.GAMMA, 1024, 8)
        g1, g2 = r1.group_totals, r2.group_totals
        assert g2["conversion"] == pytest.approx(2 * g1["conversion"])
        assert g2["logic"] == pytest.approx(2 * g1["logic"])
        assert g2["input_layer"] == pytest.approx(g1["input_layer"])

    @pytest.mark.parametrize("app", APPS)
    def test_strict_energy_ordering_under_defaults(self, app):
        e = {d: energy_report(d, app, 1024, STREAMS[app]).total for d in SystemDesign}
        assert e[SystemDesign.STOCHMEM] < e[SystemDesign.CONV_MTJ] < e[SystemDesign.CONV_LFSR]

    def test_published_energy_reductions(self):
        reps = {d: [energy_report(d, a, 1024, STREAMS[a]) for a in APPS]
                for d in SystemDesign}
        red_ml = aggregate_reduction(reps[SystemDesign.CONV_MTJ],
                                     reps[SystemDesign.CONV_LFSR])
        red_sm = aggregate_reduction(reps[SystemDesign.STOCHMEM],
                                     reps[SystemDesign.CONV_MTJ])
        # the model gives 45.75 and 11.10
        assert red_ml == pytest.approx(45.7, abs=0.1)
        assert red_sm == pytest.approx(11.1, abs=0.1)

    def test_energy_share_progression(self):
        shares = {d: average_shares([energy_report(d, a, 1024, STREAMS[a])
                                     for a in APPS]) for d in SystemDesign}
        logic = [shares[d]["logic"] for d in
                 (SystemDesign.CONV_LFSR, SystemDesign.CONV_MTJ, SystemDesign.STOCHMEM)]
        conv = [shares[d]["conversion"] for d in
                (SystemDesign.CONV_LFSR, SystemDesign.CONV_MTJ, SystemDesign.STOCHMEM)]
        assert logic[0] < logic[1] < logic[2]
        assert conv[0] > conv[1] > conv[2]
        for got, ref in zip(logic, (0.312, 0.530, 0.601)):
            assert got == pytest.approx(ref, abs=0.10)
        for got, ref in zip(conv, (0.644, 0.378, 0.221)):
            assert got == pytest.approx(ref, abs=0.10)

    def test_custom_access_counts(self):
        # each operand: one ADC and one DAC conversion, one write and one read
        rep = energy_report(SystemDesign.CONV_MTJ, AppKind.FRAME, 1024, n_operands=3,
                            model=CostModel(multipliers=AccessMultipliers(1.0, 1.0, 1.0, 1.0)))
        parts = dict((u, v) for u, _, v in rep.entries)
        assert (parts["adc"], parts["dac"], parts["memory"]) == (60.0, 192.0, 60.0)

    def test_negative_operand_count_rejected(self):
        with pytest.raises(ValueError, match="operand count must be nonnegative and finite; "
                                             "n_operands is -1"):
            energy_report(SystemDesign.STOCHMEM, AppKind.GAMMA, 1024, n_operands=-1)


def test_share_breakdown_sums_to_one():
    for app in APPS:
        for design in SystemDesign:
            for rep in (area_report(design, app),
                        energy_report(design, app, 1024, STREAMS[app])):
                assert sum(share_breakdown(rep).values()) == pytest.approx(1.0, abs=1e-9)


def test_share_breakdown_zero_total_rejected():
    rep = energy_report(SystemDesign.STOCHMEM, AppKind.GAMMA, 1024, STREAMS[AppKind.GAMMA])
    rep.entries = [("x", "logic", 0.0)]
    with pytest.raises(ValueError):
        share_breakdown(rep)


@pytest.mark.parametrize("design", list(SystemDesign), ids=lambda d: d.value)
@pytest.mark.parametrize("app", APPS, ids=lambda a: a.value)
def test_area_and_energy_list_the_same_units_in_order(app, design):
    area = area_report(design, app)
    energy = energy_report(design, app, 1024, STREAMS[app])
    assert [(u, g) for u, g, _ in area.entries] == [(u, g) for u, g, _ in energy.entries]


# repr of (area.total, energy.total, energy_default.total) of a run at L=1024:
# energy charges one operand per operand plane, energy_default the profile's
# n_streams
RUN_TOTALS = {
    (AppKind.ROBERT, SystemDesign.CONV_LFSR): ("51810.0", "2536.08", "2550.58"),
    (AppKind.ROBERT, SystemDesign.CONV_MTJ): ("66435.0", "777.3599999999999", "820.6600000000001"),
    (AppKind.ROBERT, SystemDesign.STOCHMEM): ("597.0", "704.16", "729.1600000000001"),
    (AppKind.MEDIAN, SystemDesign.CONV_LFSR): ("58320.0", "8373.7", "8388.2"),
    (AppKind.MEDIAN, SystemDesign.CONV_MTJ): ("71570.0", "4885.0599999999995", "4928.36"),
    (AppKind.MEDIAN, SystemDesign.STOCHMEM): ("5868.0", "4720.36", "4745.36"),
    (AppKind.FRAME, SystemDesign.CONV_LFSR): ("51246.0", "1346.888", "1375.888"),
    (AppKind.FRAME, SystemDesign.CONV_MTJ): ("66534.0", "632.3919999999999", "718.992"),
    (AppKind.FRAME, SystemDesign.STOCHMEM): ("670.0", "595.7919999999999", "645.7919999999999"),
    (AppKind.GAMMA, SystemDesign.CONV_LFSR): ("51267.0", "1120.42", "1221.92"),
    (AppKind.GAMMA, SystemDesign.CONV_MTJ): ("66231.0", "332.068", "635.168"),
    (AppKind.GAMMA, SystemDesign.STOCHMEM): ("502.0", "313.768", "488.768"),
    (AppKind.KDE, SystemDesign.CONV_LFSR): ("64979.0", "13504.804", "13635.304"),
    (AppKind.KDE, SystemDesign.CONV_MTJ): ("75443.0", "9983.396", "10373.096000000001"),
    (AppKind.KDE, SystemDesign.STOCHMEM): ("10392.0", "9379.496", "9604.496"),
}


@pytest.mark.parametrize("app,design", list(RUN_TOTALS),
                         ids=lambda v: v.value)
def test_run_cost_totals_are_bit_exact(app, design):
    r = run_experiment(ExperimentConfig(app=app, design=design, length=1024, dims=(4, 4)))
    got = (repr(r.area.total), repr(r.energy.total), repr(r.energy_default.total))
    assert got == RUN_TOTALS[(app, design)]


def test_a_cost_file_reprices_a_run():
    # a DAC at half the energy per conversion halves a run's dac term exactly
    # and leaves every other term as it was
    cfg = ExperimentConfig(app=AppKind.ROBERT, design=SystemDesign.CONV_MTJ, dims=(4, 4))
    base = run_experiment(cfg).energy.entries
    model = load_costs(COST_FILES / "dac_halved.txt")
    halved = run_experiment(replace(cfg, costs=model)).energy.entries
    assert [(u, e / 2 if u == "dac" else e) for u, _, e in base] == [(u, e) for u, _, e in halved]
    assert "dac" in dict((u, e) for u, _, e in base)


def test_cost_config_overrides(tmp_path):
    cfg = tmp_path / "costs.txt"
    cfg.write_text(
        "# override table\n"
        "unit.adc_10bit.area_um2 = 40000\n"
        "unit.analog_cell.write_energy_pJ = 90\n"
        "unit.sram_cell.write_energy_pJ = 20\n"
        "profile.robert.n_streams = 6\n"
        "mult.read = 0.5\n")
    model = load_costs(cfg)
    assert model.units["adc_10bit"].area_um2 == 40000
    assert model.units["adc_10bit"].energy_pJ == 20  # untouched fields keep defaults
    assert model.units["analog_cell"].write_energy_pJ == 90
    assert model.profiles[AppKind.ROBERT].n_streams == 6
    assert model.multipliers == AccessMultipliers(read=0.5)
    report = area_report(SystemDesign.CONV_LFSR, AppKind.ROBERT, model)
    assert report.total == 339 + 21 + 40000 + (194 * 5 + 96 * 6)
    # the SRAM write costs 20 pJ on the memory row of both conv designs, against
    # 10 pJ by default, and a read is charged half: 4 operands, each read once
    # and written 0.15 times
    for design in (SystemDesign.CONV_LFSR, SystemDesign.CONV_MTJ):
        rows = [energy_report(design, AppKind.FRAME, 1024, 4, m).entries[0]
                for m in (model, CostModel())]
        assert [(unit, energy) for unit, _, energy in rows] == [
            ("memory", pytest.approx(4 * (10 * 0.5 + 20 * 0.15))),
            ("memory", pytest.approx(4 * (10 + 10 * 0.15)))]


def test_cost_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "costs.txt"
    cfg.write_text("unit.adc_10bit.bogus = 1\n")
    with pytest.raises(ValueError):
        load_costs(cfg)


def test_cost_config_rejects_unknown_unit(tmp_path):
    # a misspelt unit name would otherwise create a unit nothing charges
    cfg = tmp_path / "costs.txt"
    cfg.write_text("# widths are fixed\nunit.adc_12bit.area_um2 = 5\n")
    with pytest.raises(ValueError, match=r"costs\.txt:2: unknown unit 'adc_12bit'"):
        load_costs(cfg)


def test_cost_config_has_no_energy_mode_knob(tmp_path):
    # energy_report fixes how each unit is charged; a mode key would do nothing
    cfg = tmp_path / "costs.txt"
    cfg.write_text("unit.sram_cell.energy_mode = per_cycle\n")
    with pytest.raises(ValueError, match="energy_mode"):
        load_costs(cfg)


@pytest.mark.parametrize("kwargs,match", [
    ({"units": {k: v for k, v in DEFAULT_UNIT_COSTS.items() if k != "asc"}},
     "unit asc must be a UnitCost, got None"),
    ({"units": {**DEFAULT_UNIT_COSTS, "sram_cell": UnitCost(0.35, 10.0)}},
     "unit sram_cell must be a CellCost"),
    ({"units": {**DEFAULT_UNIT_COSTS, "dram_cell": CellCost(1.0, 1.0, 1.0)}},
     r"unknown units \['dram_cell'\]"),
    ({"profiles": {}}, "the profile of robert must be an AppProfile, got None"),
], ids=("no-asc", "sram-not-a-cell", "unknown-unit", "no-profiles"))
def test_cost_model_rejects_what_it_cannot_price(kwargs, match):
    # each would otherwise fail only when priced, with a KeyError or AttributeError
    with pytest.raises(ValueError, match=match):
        CostModel(**kwargs)


def test_unit_cost_validation():
    with pytest.raises(ValueError):
        UnitCost(-1.0, 0.0)


@pytest.mark.parametrize("value", (-5.0, float("nan"), float("inf")))
@pytest.mark.parametrize("field", ("adc", "write", "read", "dac"))
def test_access_multipliers_must_be_nonnegative_and_finite(field, value):
    with pytest.raises(ValueError, match=f"access multipliers .*; {field} is {value}"):
        AccessMultipliers(**{field: value})
    assert asdict(AccessMultipliers(0, 0, 0, 0)) == dict.fromkeys(
        ("adc", "write", "read", "dac"), 0)


def _priced_values(model: CostModel) -> dict[str, object]:
    """Every value of model by its cost-file key, read from each record's fields."""
    values = {f"mult.{k}": v for k, v in asdict(model.multipliers).items()}
    for name, unit in model.units.items():
        values.update({f"unit.{name}.{k}": v for k, v in asdict(unit).items()})
    for app, profile in model.profiles.items():
        values.update({f"profile.{app.value}.{k}": v for k, v in asdict(profile).items()})
    return values


def test_cost_file_keys_are_the_declared_fields(tmp_path):
    default = _priced_values(CostModel())
    assert len(default) == 50
    assert Counter(key.split(".")[0] for key in default) == {"unit": 26, "profile": 20, "mult": 4}
    path = tmp_path / "costs.txt"
    for key, value in default.items():
        # value + 1 keeps the field's type, and repr tells an int count from a float
        path.write_text(f"{key} = {value + 1}\n")
        got = _priced_values(load_costs(path))
        assert {k: repr(v) for k, v in got.items()} == {
            k: repr(v) for k, v in {**default, key: value + 1}.items()}, key


def test_a_cell_read_energy_leaves_its_write_energy(tmp_path, capsys):
    # a cell's read and write energies are separate keys: frame stores 2 operands
    # on conv-mtj, each read once and written 0.15 times, so 2 * (20 + 10 * 0.15)
    path = tmp_path / "costs.txt"
    path.write_text("unit.sram_cell.energy_pJ = 20\n")
    assert load_costs(path).units["sram_cell"] == CellCost(0.35, 20.0, 10.0)
    assert main(["cost", "--apps", "frame", "--designs", "conv-mtj", "--costs", str(path)]) == 0
    assert "\nmemory\tinput_layer\t43\n" in capsys.readouterr().out


def _scaled(tmp_path, names, k: float) -> CostModel:
    """The default model with every value of the fields ``names`` times k, read
    from a cost file."""
    path = tmp_path / "scaled.txt"
    path.write_text("".join(f"{key} = {value * k!r}\n" for key, value
                            in _priced_values(CostModel()).items()
                            if key.rsplit(".", 1)[1] in names))
    return load_costs(path)


def _cuts(reports) -> tuple[float, ...]:
    """The mtj-vs-lfsr and stochmem-vs-mtj cuts of per-design report lists."""
    lfsr, mtj, stoch = (reports[d] for d in (SystemDesign.CONV_LFSR, SystemDesign.CONV_MTJ,
                                             SystemDesign.STOCHMEM))
    return aggregate_reduction(mtj, lfsr), aggregate_reduction(stoch, mtj)


# Basis: each unit's energy is one priced energy (energy_pJ or write_energy_pJ)
# times counts, the length and access multipliers, and its area one priced area
# (area_um2 or mem_area_*) times counts.  So every total is linear and
# homogeneous in those values: scaling them all by k scales each total by k,
# leaves each per-app ratio, and so each cut, where it was, up to rounding.
@pytest.mark.parametrize("names,report", [
    (("energy_pJ", "write_energy_pJ"),
     lambda d, a, m: energy_report(d, a, 1024, WIRING[a].slots, m)),
    (("energy_pJ", "write_energy_pJ"),
     lambda d, a, m: energy_report(d, a, 1024, m.profiles[a].n_streams, m)),
    (("area_um2", "mem_area_digital_um2", "mem_area_analog_um2"), area_report),
], ids=("energy-at-slots", "energy-at-n_streams", "area"))
def test_cuts_do_not_depend_on_the_unit_of_energy_or_area(tmp_path, names, report):
    base, times = ({d: [report(d, a, model) for a in APPS] for d in SystemDesign}
                   for model in (CostModel(), _scaled(tmp_path, names, 1.37)))
    for d in SystemDesign:
        assert [r.total for r in times[d]] == pytest.approx([1.37 * r.total for r in base[d]],
                                                            rel=1e-12)
    assert _cuts(times) == pytest.approx(_cuts(base), abs=1e-12)
