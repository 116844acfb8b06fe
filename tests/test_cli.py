"""The command-line front end: every subcommand on tiny inputs, and the
documented exit codes (0 success, 1 domain error, 2 usage error)."""

import argparse
import re
import shlex
from pathlib import Path
from unittest import mock

import pytest

from stochmem import cli
from stochmem.circuits import AppKind, AppParams, gamma_fit, stream_plan
from stochmem.cli import main
from stochmem.config import FIELD_BY_KEY, FIELDS, resolve_config
from stochmem.costs import SystemDesign
from stochmem.harness import CSV_COLUMNS
from stochmem.images import save_pgm
from stochmem.memory import NoiseModel
from stochmem.synth import gen_test_inputs
from test_config import COST_FILES, SAMPLES

TINY = ["--dims", "6x5", "--seed", "3"]


def test_run_writes_image_and_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--app", "robert", "--design", "stochmem", "--length", "16",
                 "--out", str(out)] + TINY) == 0
    assert (out / "output.pgm").is_file()
    report = (out / "report.csv").read_text()
    assert report.startswith(",".join(CSV_COLUMNS) + "\nrobert,stochmem,16,3,")
    # stdout is the report.csv header and row, the row a sweep writes
    assert capsys.readouterr().out == report + f"wrote {out / 'output.pgm'}\n"
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--apps", "robert", "--designs", "stochmem", "--lengths", "16",
                 "--seeds", "1", "--out", str(csv)] + TINY) == 0
    assert csv.read_text() == report


def test_sweep_writes_one_row_per_run(tmp_path):
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--apps", "frame,gamma", "--designs", "all", "--lengths", "8,16",
                 "--seeds", "1", "--out", str(csv)] + TINY) == 0
    assert len(csv.read_text().splitlines()) == 1 + 2 * 3 * 2


def test_run_takes_app_and_design_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("app = frame\ndesign = conv-mtj\nlength = 16\n")
    assert main(["run", "--config", str(cfg)] + TINY) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("frame,conv-mtj,16,3,")


def test_repeated_flags_keep_the_last_value(capsys):
    assert main(["run", "--app", "gamma", "--design", "conv-mtj", "--length", "64",
                 "--length", "16"] + TINY) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("gamma,conv-mtj,16,3,")


@pytest.mark.parametrize("command,text,key,line", [
    ("run", "length = 64\nlength = 16\n", "length", 2),
    ("cost", "unit.asc.energy_pJ = 1\n# repriced\nunit.asc.energy_pJ = 2\n",
     "unit.asc.energy_pJ", 3),
], ids=("config", "costs"))
def test_a_key_set_twice_in_a_file_exits_1(tmp_path, capsys, command, text, key, line):
    path = tmp_path / "twice.txt"
    path.write_text(text)
    argv, where = {
        "run": (["run", "--app", "robert", "--design", "conv-mtj", "--config", str(path)] + TINY,
                ""),
        # the cost file is the value of a flag, and the error names both
        "cost": (["cost", "--costs", str(path)], "--costs: ")}[command]
    with mock.patch("stochmem.harness.run_experiment", side_effect=AssertionError("ran")):
        assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {where}{path}:{line}: {key} is already set on "
                                       f"line 1\n")


def test_run_with_an_unknown_design_exits_1(capsys):
    assert main(["run", "--app", "robert", "--design", "foo"] + TINY) == 1
    assert capsys.readouterr().err == ("error: --design: unknown design 'foo'; expected one of "
                                       "['conv-lfsr', 'conv-mtj', 'stochmem']\n")


def test_sweep_passes_the_config_file_jobs(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("jobs = 2\n")
    with mock.patch.object(cli, "sweep", return_value=["header"]) as spy:
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
    # sweep runs on its template's workers
    assert spy.call_args.args[0].jobs == 2 and "jobs" not in spy.call_args.kwargs


def test_calibrate_noise_passes_the_config_file_template_and_jobs(tmp_path):
    cfg = tmp_path / "cal.cfg"
    cfg.write_text("jobs = 2\ndims = 6x5\n")
    with mock.patch.object(cli, "calibrate_noise",
                           return_value=(NoiseModel(0.01, 0.01), 0.2)) as spy:
        assert main(["calibrate", "--config", str(cfg), "--seed", "4"]) == 0
    template = spy.call_args.args[1]
    assert (template.dims, template.global_seed, template.jobs) == ((6, 5), 4, 2)
    assert spy.call_args.args[0] == 0.19
    assert spy.call_args.kwargs == {"tol_pp": 0.05, "n_seeds": 5}


@pytest.mark.parametrize("flags,name", [
    (["--seeds", "0"], "n_seeds"), (["--lengths", ","], "lengths"), (["--apps", ","], "apps"),
    (["--apps", "robert,robert"], "apps lists robert twice"),
    (["--designs", "stochmem,conv-lfsr,stochmem"], "designs lists stochmem twice"),
    (["--lengths", "16,16"], "lengths lists 16 twice")])
def test_sweep_of_nothing_exits_1_without_a_file(tmp_path, capsys, flags, name):
    csv = tmp_path / "sweep.csv"
    argv = ["sweep", "--lengths", "8", "--seeds", "1", "--out", str(csv)] + flags + TINY
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert not csv.exists()


@pytest.mark.parametrize("command,line,instead", [
    ("sweep", "app = kde", "use --apps"),
    ("sweep", "design = stochmem", "use --designs"),
    ("sweep", "length = 77", "use --lengths"),
    ("calibrate", "app = kde", "runs every app"),
    ("calibrate", "length = 77", "runs at length 1024"),
    ("calibrate", "write_sigma = 0.01", "use --target-gap"),
    ("calibrate", "read_sigma = 0.01", "use --target-gap"),
])
def test_config_keys_a_command_sets_itself_exit_1(tmp_path, capsys, command, line, instead):
    """A --config key the command sets itself exits 1 before anything runs,
    and the command's --help says what it does instead."""
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"dims = 6x5\n{line}\n")
    csv = tmp_path / "sweep.csv"
    argv = {"sweep": ["sweep", "--lengths", "8", "--seeds", "1", "--out", str(csv)],
            "calibrate": ["calibrate", "--seeds", "1"]}[command]
    with mock.patch("stochmem.harness.run_experiment", side_effect=AssertionError("ran")):
        assert main(argv + ["--config", str(cfg)]) == 1
    key = line.split(" =")[0]
    assert capsys.readouterr().err == f"error: {cfg}:2: {command} does not read {key}\n"
    assert not csv.exists()
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    assert instead in " ".join(capsys.readouterr().out.split())


@pytest.mark.parametrize("flags,message", [
    (["--seeds", "0"], "n_seeds must be at least 1, got 0"),
    (["--tol", "-0.05"], "tolerance must be nonnegative"),
])
def test_calibrate_noise_with_nothing_to_measure_exits_1(capsys, flags, message):
    with mock.patch("stochmem.harness.run_experiment", side_effect=AssertionError("ran")):
        assert main(["calibrate"] + flags + TINY) == 1
    err = capsys.readouterr()
    assert err.out == "" and err.err.startswith("error: ") and message in err.err


def test_cost_prints_area_and_energy_tables(capsys):
    assert main(["cost", "--apps", "gamma", "--designs", "stochmem"]) == 0
    out = capsys.readouterr().out
    assert "# area_um2 app=gamma design=stochmem" in out
    assert "total\t\t502" in out


def _csv_row(out: str) -> dict[str, str]:
    header, row = out.splitlines()[:2]
    return dict(zip(header.split(","), row.split(",")))


@pytest.mark.parametrize("costs", (None, SAMPLES["costs"][0]), ids=("default", "dac_once"))
@pytest.mark.parametrize("design", list(SystemDesign), ids=lambda d: d.value)
@pytest.mark.parametrize("app", list(AppKind), ids=lambda a: a.value)
def test_cost_and_run_print_one_price(app, design, costs, capsys):
    """cost charges the operands a run stores, so one app, design, length and
    cost file have one area and one energy."""
    flags = ["--length", "1024"] + (["--costs", costs] if costs else [])
    assert main(["run", "--app", app.value, "--design", design.value, "--dims", "2x2"]
                + flags) == 0
    row = _csv_row(capsys.readouterr().out)
    assert main(["cost", "--apps", app.value, "--designs", design.value] + flags) == 0
    totals = [float(line.split("\t")[2]) for line in capsys.readouterr().out.splitlines()
              if line.startswith("total\t")]
    # cost prints 6 significant digits
    assert totals == [pytest.approx(float(row["area_um2"]), rel=1e-5),
                      pytest.approx(float(row["energy_pJ_per_pixel"]), rel=1e-5)]


def test_a_cost_file_prices_what_the_multiplier_flags_priced(tmp_path, capsys):
    # mult.dac = 1, as a flag or a --config key, gives the energy the removed
    # --mult-dac 1 gave
    argv = ["run", "--app", "robert", "--design", "conv-mtj", "--dims", "8x8", "--length", "1024"]
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"costs = {SAMPLES['costs'][0]}\n")
    for given in (["--costs", SAMPLES["costs"][0]], ["--config", str(cfg)]):
        assert main(argv + given) == 0
        assert _csv_row(capsys.readouterr().out)["energy_pJ_per_pixel"] == "918.1600"


@pytest.mark.parametrize("line,message", [
    ("mult.bogus = 1", "unknown access multiplier 'bogus'; mult has fields adc, write, read, dac"),
    ("mult.dac = -5", "mult.dac: access multipliers must be nonnegative and finite; dac is -5.0"),
    ("mult.dac = nan", "mult.dac: access multipliers must be nonnegative and finite; dac is nan"),
], ids=("bogus", "negative", "nan"))
def test_a_bad_multiplier_in_a_cost_file_exits_1(tmp_path, capsys, line, message):
    costs = tmp_path / "costs.txt"
    costs.write_text(f"# repriced\n{line}\n")
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"costs = {costs}\n")
    with mock.patch("stochmem.harness.run_experiment", side_effect=AssertionError("ran")):
        assert main(["run", "--app", "robert", "--design", "conv-mtj", "--config", str(cfg)]) == 1
    assert capsys.readouterr() == ("", f"error: {cfg}:1: costs: {costs}:2: {message}\n")


@pytest.mark.parametrize("argv", [
    ["run", "--app", "robert", "--design", "conv-mtj", "--dims", "8x8", "--length", "64"],
    ["cost", "--apps", "robert", "--designs", "conv-mtj"],
], ids=("run", "cost"))
def test_a_price_that_overflows_the_energy_exits_1(tmp_path, capsys, argv):
    # each value is finite, but the DAC's energy per pixel is not
    costs = tmp_path / "costs.txt"
    costs.write_text("mult.dac = 1e308\n")
    assert main(argv + ["--costs", str(costs)]) == 1
    assert capsys.readouterr().err == ("error: the energy of unit dac is inf; it reads the cost "
                                       "keys unit.dac_8bit.*, mult.dac\n")


def test_the_readme_commands_parse():
    """Every command line of the README's sh block parses, so a removed flag
    cannot linger there, and the block shows every command."""
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = re.search(r"```sh\n(.*?)```", readme, re.S).group(1)
    lines = [shlex.split(line) for line in block.splitlines() if "python -m stochmem.cli" in line]
    commands = set()
    for argv in lines:
        args = cli.build_parser().parse_args(argv[argv.index("stochmem.cli") + 1:])
        commands.add(args.command)
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction))
    assert commands == set(subcommands.choices)


def test_fit_gamma_prints_coefficients(capsys):
    assert main(["fit-gamma", "--bernstein-degree", "3"]) == 0
    out = capsys.readouterr().out
    assert [line.split("\t")[0] for line in out.splitlines()[1:5]] == ["b0", "b1", "b2", "b3"]
    # with no flags, the coefficients a run streams at the default parameters
    # and the error of that one fit
    assert main(["fit-gamma"]) == 0
    params = AppParams()
    coeffs = stream_plan(AppKind.GAMMA, params).consts
    assert capsys.readouterr().out.splitlines()[1:] == (
        [f"b{k}\t{c:.6f}" for k, c in enumerate(coeffs)]
        + [f"max_fit_error\t{gamma_fit(params)[1]:.6f}"])


def test_fit_gamma_accepts_the_largest_degree_a_run_uses(capsys):
    assert main(["fit-gamma", "--bernstein-degree", "16"]) == 0
    assert capsys.readouterr().out.splitlines()[17].startswith("b16\t")


def test_gen_inputs_writes_pgm_files(tmp_path, capsys):
    # the inputs the apps read: a still kind as one file, the video as a frame directory
    assert main(["gen-inputs", "--out", str(tmp_path), "--dims", "6x5"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["salt-pepper.pgm", "scene.pgm", "video"]
    assert len(list((tmp_path / "video").glob("*.pgm"))) == 33
    assert capsys.readouterr().out == (f"wrote {tmp_path / 'scene.pgm'} (1 frame)\n"
                                       f"wrote {tmp_path / 'salt-pepper.pgm'} (1 frame)\n"
                                       f"wrote {tmp_path / 'video'} (33 frames)\n")


def test_gen_inputs_writes_the_inputs_of_an_input_seed(tmp_path):
    # the inputs a run with --input-seed reads can be exported
    for name, flags in (("seeded", ["--input-seed", "5"]), ("default", [])):
        assert main(["gen-inputs", "--out", str(tmp_path / name), "--dims", "6x5"] + flags) == 0
    save_pgm(gen_test_inputs("scene", (6, 5), 5)[0], tmp_path / "expected.pgm")
    scene = (tmp_path / "seeded" / "scene.pgm").read_bytes()
    assert scene == (tmp_path / "expected.pgm").read_bytes()
    assert scene != (tmp_path / "default" / "scene.pgm").read_bytes()


def test_calibrate_takes_its_run_count_as_seeds_only(capsys):
    # --seeds names the runs per configuration, as it does for sweep
    with pytest.raises(SystemExit) as exc:
        main(["calibrate", "--runs", "1"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith("unrecognized arguments: --runs 1\n")


def test_the_removed_free_run_knob_fails_loudly(tmp_path, capsys):
    base = ["run", "--app", "robert", "--design", "conv-lfsr", "--length", "8"] + TINY
    cfg = tmp_path / "run.cfg"
    cfg.write_text("free_run = 1\n")
    assert main(base + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:1: unknown key 'free_run'\n"
    for flag in ("--free-run", "--no-free-run"):
        with pytest.raises(SystemExit) as exc:
            main(base + [flag])
        assert exc.value.code == 2
        assert capsys.readouterr().err.endswith(f"unrecognized arguments: {flag}\n")


def test_calibrate_access_reproduces_paper_reductions(capsys):
    assert main(["calibrate-access"]) == 0
    out = capsys.readouterr().out
    assert "mtj_vs_lfsr_reduction_percent\t45.75" in out
    assert "stochmem_vs_mtj_reduction_percent\t11.10" in out


def test_calibrate_access_rejects_the_run_options_it_ignores(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"length = 5\ncosts = {SAMPLES['costs'][0]}\n")
    options = ["--config", str(cfg), "--costs", SAMPLES["costs"][0], "--seeds", "0", "--tol", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(["calibrate-access"] + options)
    assert exc.value.code == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err.endswith(f"error: unrecognized arguments: "
                                              f"{' '.join(options)}\n")


# every run flag, --config, and the other commands' own options
_NOT_ACCESS_OPTIONS = [["--costs", SAMPLES["costs"][0]], ["--seed", "2"], ["--dims", "6x5"],
                       ["--target-gap", "0.19"], ["--tol", "0.05"], ["--seeds", "5"],
                       ["--apps", "all"], ["--designs", "all"], ["--lengths", "8"],
                       ["--seeds", "1"], ["--out", "unused"]]
_NOT_ACCESS_OPTIONS += [[flag, "1"] for flag in [f.flag for f in FIELDS] + ["--config"]
                        if flag not in {argv[0] for argv in _NOT_ACCESS_OPTIONS}]


@pytest.mark.parametrize("flags", _NOT_ACCESS_OPTIONS)
def test_calibrate_access_names_each_ignored_option(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate-access"] + flags)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"unrecognized arguments: {' '.join(flags)}\n")


# the config keys each command reads
_ALL_KEYS = {f.key for f in FIELDS}
_READS = {"run": _ALL_KEYS, "sweep": _ALL_KEYS - {"app", "design", "length"},
          "calibrate": {"seed", "dims", "input_seed", "input", "theta", "delta",
                        "gamma_exponent", "bernstein_degree", "jobs"}}


class _Called(Exception):
    """Stands in for the call a command hands its config to."""


@pytest.mark.parametrize("command", _READS)
def test_a_command_takes_the_flag_of_every_key_it_does_not_set(command, tmp_path, capsys):
    """The flag of each key a command reads reaches the config it passes on; a
    key it does not read exits 2 as a flag and 1 as a --config key."""
    base, given, (target, position) = {
        "run": (["run", "--app", "robert", "--design", "conv-lfsr"],
                {"app": "robert", "design": "conv-lfsr"}, ("run_experiment", 0)),
        "sweep": (["sweep", "--out", str(tmp_path / "s.csv")], {}, ("sweep", 0)),
        "calibrate": (["calibrate"], {}, ("calibrate_noise", 1)),
    }[command]
    cfg = tmp_path / "run.cfg"
    for field in FIELDS:
        value = SAMPLES[field.key][0]
        flag = [field.flag, value]
        with mock.patch.object(cli, target, side_effect=_Called) as spy:
            if field.key in _READS[command]:
                with pytest.raises(_Called):
                    main(base + flag)
                want = resolve_config({k: FIELD_BY_KEY[k].parse(v)
                                       for k, v in {**given, field.key: value}.items()})
                assert spy.call_args.args[position] == want, field.key
                continue
            with pytest.raises(SystemExit) as exc:
                main(base + flag)
            assert exc.value.code == 2, field.key
            cfg.write_text(f"{field.key} = {value}\n")
            assert main(base + ["--config", str(cfg)]) == 1
            assert capsys.readouterr().err.endswith(
                f"error: {cfg}:1: {command} does not read {field.key}\n"), field.key
            spy.assert_not_called()


@pytest.mark.parametrize("argv,message", [
    (["run", "--app", "sobel", "--design", "conv-lfsr"], "unknown app"),
    (["run", "--app", "robert", "--design", "conv-lfsr", "--dims", "32"], "dims"),
    (["run", "--app", "robert", "--design", "conv-lfsr", "--dims", "0x5"], "dims"),
    (["gen-inputs", "--out", "unused", "--dims", "6by5"], "dims"),
    (["sweep", "--apps", "robert", "--lengths", "8", "--jobs", "0", "--out", "unused"], "jobs"),
    (["calibrate", "--jobs", "0"], "jobs"),
    (["run", "--app", "robert", "--design", "conv-lfsr", "--input", "scene.pgm", "--dims",
      "64x64"], "dims sizes only the synthetic inputs; it cannot be set with input"),
    (["run", "--app", "gamma", "--design", "conv-mtj", "--bernstein-degree", "17"],
     "bernstein_degree must be at most 16"),
    (["run", "--app", "gamma", "--design", "stochmem", "--dims", "8x8", "--length", "64",
      "--write-sigma", "nan"], "noise sigmas must be nonnegative and finite; write_sigma is nan"),
    (["run", "--app", "gamma", "--design", "stochmem", "--dims", "8x8", "--length", "64",
      "--read-sigma", "inf"], "noise sigmas must be nonnegative and finite; read_sigma is inf"),
    (["run", "--app", "robert", "--design", "conv-mtj", "--costs",
      str(COST_FILES / "dac_negative.txt")],
     "access multipliers must be nonnegative and finite; dac is -5.0"),
    (["run", "--app", "robert", "--design", "conv-mtj", "--costs",
      str(COST_FILES / "adc_nan.txt")],
     "access multipliers must be nonnegative and finite; adc is nan"),
    (["run", "--app", "robert", "--design", "conv-mtj", "--costs",
      str(COST_FILES / "read_inf.txt")],
     "access multipliers must be nonnegative and finite; read is inf"),
    (["run", "--app", "gamma", "--design", "conv-mtj", "--gamma-exponent", "nan"],
     "gamma_exponent must be nonnegative and finite, got nan"),
    (["run", "--app", "gamma", "--design", "conv-mtj", "--gamma-exponent", "-1"],
     "gamma_exponent must be nonnegative and finite, got -1.0"),
    (["fit-gamma", "--gamma-exponent", "-1"], "gamma_exponent must be nonnegative and finite, "
                                               "got -1.0"),
    (["fit-gamma", "--gamma-exponent", "nan"], "gamma_exponent must be nonnegative and finite, "
                                                "got nan"),
    (["cost", "--length", "0"], "length must be in 1..16777216, got 0"),
    (["cost", "--length", "-1"], "length must be in 1..16777216, got -1"),
    (["cost", "--length", "99999999"], "length must be in 1..16777216, got 99999999"),
    (["fit-gamma", "--bernstein-degree", "17"], "bernstein_degree must be at most 16 (gamma "
                                                "replica streams) and at least 1, got 17"),
    (["fit-gamma", "--bernstein-degree", "1100"], "bernstein_degree must be at most 16 (gamma "
                                                  "replica streams) and at least 1, got 1100"),
    (["run", "--app", "frame", "--design", "conv-mtj", "--theta", "inf"],
     "theta must lie in [0, 1], got inf"),
    (["run", "--app", "kde", "--design", "conv-mtj", "--theta", "1.5"],
     "theta must lie in [0, 1], got 1.5"),
    (["run", "--app", "kde", "--design", "stochmem", "--delta", "1.01"],
     "delta must lie in [0, 1], got 1.01"),
    (["calibrate", "--theta", "-0.1"], "theta must lie in [0, 1], got -0.1"),
    (["cost", "--apps", "robert,robert"], "apps lists robert twice"),
    (["cost", "--apps", ""], "apps is empty"),
    (["cost", "--designs", "conv-mtj,stochmem,conv-mtj"], "designs lists conv-mtj twice"),
    (["sweep", "--lengths", "16,x", "--out", "unused"], "--lengths: invalid literal"),
    (["run", "--app", "robert", "--design", "conv-mtj", "--seed", "-5"],
     "global_seed must lie in [0, 2^64), got -5"),
    (["run", "--app", "robert", "--design", "conv-mtj", "--seed", "18446744073709551616"],
     "global_seed must lie in [0, 2^64), got 18446744073709551616"),
    (["sweep", "--seed", "18446744073709551615", "--seeds", "2", "--out", "unused"],
     "global_seed must lie in [0, 2^64), got 18446744073709551616"),
    (["gen-inputs", "--input-seed", "-1", "--out", "unused"],
     "input_seed must lie in [0, 2^64), got -1"),
])
def test_domain_errors_exit_1(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


def test_fit_gamma_and_run_reject_a_degree_with_one_message(capsys):
    errors = []
    for argv in (["fit-gamma"], ["run", "--app", "gamma", "--design", "conv-mtj"]):
        assert main(argv + ["--bernstein-degree", "17"]) == 1
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == ("error: bernstein_degree must be at most 16 (gamma replica "
                                      "streams) and at least 1, got 17\n")


def test_cost_file_with_unknown_unit_exits_1(tmp_path, capsys):
    costs = tmp_path / "costs.txt"
    costs.write_text("unit.adc_12bit.area_um2 = 5\n")
    assert main(["cost", "--costs", str(costs)]) == 1
    assert f"{costs}:1: unknown unit" in capsys.readouterr().err


def test_cost_file_with_a_nan_unit_cost_exits_1(tmp_path, capsys):
    costs = tmp_path / "costs.txt"
    costs.write_text("unit.adc_10bit.energy_pJ = nan\n")
    assert main(["cost", "--costs", str(costs)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        f"error: --costs: {costs}:1: unit.adc_10bit.energy_pJ: unit costs must be nonnegative "
        f"and finite; energy_pJ is nan\n")


@pytest.mark.parametrize("argv", [
    ["run", "--design", "conv-lfsr"],
    ["run", "--app", "robert"],
    ["sweep", "--apps", "robert"],
    ["calibrate", "--mode", "access"],
    [],
])
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
