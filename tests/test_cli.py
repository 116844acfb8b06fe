"""The command-line front end: every subcommand on tiny inputs, and the
documented exit codes (0 success, 1 domain error, 2 usage error)."""

from unittest import mock

import pytest

from stochmem import cli
from stochmem.cli import main
from stochmem.config import FIELDS, parse_bool
from stochmem.memory import NoiseModel

TINY = ["--dims", "6x5", "--seed", "3"]


def test_run_writes_image_and_report(tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["run", "--app", "robert", "--design", "stochmem", "--length", "16",
                 "--out", str(out)] + TINY) == 0
    assert (out / "output.pgm").is_file()
    assert (out / "report.csv").read_text().startswith("app,design,length,seed,")
    assert capsys.readouterr().out.splitlines()[1].startswith("robert\tstochmem\t16\t3\t")


def test_sweep_writes_one_row_per_run(tmp_path):
    csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--apps", "frame,gamma", "--designs", "all", "--lengths", "8,16",
                 "--seeds", "1", "--out", str(csv)] + TINY) == 0
    assert len(csv.read_text().splitlines()) == 1 + 2 * 3 * 2


def test_run_takes_app_and_design_from_the_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("app = frame\ndesign = conv-mtj\nlength = 16\n")
    assert main(["run", "--config", str(cfg)] + TINY) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("frame\tconv-mtj\t16\t3\t")


def test_sweep_passes_the_config_file_jobs(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("jobs = 2\n")
    with mock.patch.object(cli, "sweep", return_value=["header"]) as spy:
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "s.csv")]) == 0
    assert spy.call_args.kwargs["jobs"] == 2


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
    (["--seeds", "0"], "n_seeds"), (["--lengths", ","], "lengths"), (["--apps", ","], "apps")])
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
    cfg = tmp_path / "grid.cfg"
    cfg.write_text(f"dims = 6x5\n{line}\n")
    csv = tmp_path / "sweep.csv"
    argv = {"sweep": ["sweep", "--lengths", "8", "--seeds", "1", "--out", str(csv)],
            "calibrate": ["calibrate", "--runs", "1"]}[command]
    with mock.patch("stochmem.harness.run_experiment", side_effect=AssertionError("ran")):
        assert main(argv + ["--config", str(cfg)]) == 1
    key = line.split(" =")[0]
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cfg}:2: {command} sets {key} itself; ") and instead in err
    assert not csv.exists()


@pytest.mark.parametrize("flags,message", [
    (["--runs", "0"], "n_seeds must be at least 1, got 0"),
    (["--tol", "-0.05"], "tolerance must be nonnegative"),
])
def test_calibrate_noise_with_nothing_to_measure_exits_1(capsys, flags, message):
    with mock.patch("stochmem.harness.run_experiment", side_effect=AssertionError("ran")):
        assert main(["calibrate"] + flags + TINY) == 1
    err = capsys.readouterr()
    assert err.out == "" and err.err.startswith("error: ") and message in err.err


def test_cost_prints_area_and_energy_tables(capsys):
    assert main(["cost", "--app", "gamma", "--design", "stochmem"]) == 0
    out = capsys.readouterr().out
    assert "# area_um2 app=gamma design=stochmem" in out
    assert "total\t\t502" in out


def test_fit_gamma_prints_coefficients(capsys):
    assert main(["fit-gamma", "--degree", "3"]) == 0
    out = capsys.readouterr().out
    assert [line.split("\t")[0] for line in out.splitlines()[1:5]] == ["b0", "b1", "b2", "b3"]


def test_gen_inputs_writes_pgm_files(tmp_path):
    assert main(["gen-inputs", "--out", str(tmp_path), "--dims", "6x5"]) == 0
    assert (tmp_path / "scene.pgm").is_file()
    assert len(list((tmp_path / "video").glob("*.pgm"))) == 33


def test_calibrate_access_reproduces_paper_reductions(capsys):
    assert main(["calibrate-access"]) == 0
    out = capsys.readouterr().out
    assert "mtj_vs_lfsr_reduction_percent\t45.75" in out
    assert "stochmem_vs_mtj_reduction_percent\t11.10" in out


def test_calibrate_access_rejects_the_run_options_it_ignores(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("length = 5\nmult_adc = 0.9\n")
    options = ["--config", str(cfg), "--mult-dac", "0.3", "--runs", "0", "--tol", "-1"]
    with pytest.raises(SystemExit) as exc:
        main(["calibrate-access"] + options)
    assert exc.value.code == 2
    err = capsys.readouterr()
    assert err.out == "" and err.err.endswith(f"error: unrecognized arguments: "
                                              f"{' '.join(options)}\n")


# every run flag, --config and calibrate's own options
_NOT_ACCESS_OPTIONS = [["--mult-dac", "0.3"], ["--seed", "2"], ["--dims", "6x5"],
                       ["--free-run"], ["--target-gap", "0.19"], ["--tol", "0.05"],
                       ["--runs", "5"]]
_NOT_ACCESS_OPTIONS += [[flag, "1"] for flag in [f.flag for f in FIELDS] + ["--config"]
                        if flag not in {argv[0] for argv in _NOT_ACCESS_OPTIONS}]


@pytest.mark.parametrize("flags", _NOT_ACCESS_OPTIONS)
def test_calibrate_access_names_each_ignored_option(capsys, flags):
    with pytest.raises(SystemExit) as exc:
        main(["calibrate-access"] + flags)
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"unrecognized arguments: {' '.join(flags)}\n")


# the config keys each command sets itself
_OWN_KEYS = {"run": set(), "sweep": {"app", "design", "length"},
             "calibrate": {"app", "design", "length", "write_sigma", "read_sigma"}}


@pytest.mark.parametrize("command", _OWN_KEYS)
def test_a_command_takes_the_flag_of_every_key_it_does_not_set(command):
    base = [command, "--out", "sweep.csv"] if command == "sweep" else [command]
    for field in FIELDS:
        value = True if field.parse is parse_bool else "1"
        argv = base + ([field.flag] if value is True else [field.flag, value])
        if field.key in _OWN_KEYS[command]:
            with pytest.raises(SystemExit) as exc:
                cli.build_parser().parse_args(argv)
            assert exc.value.code == 2, argv
        else:
            assert getattr(cli.build_parser().parse_args(argv), field.key) == value, argv


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
    (["run", "--app", "robert", "--design", "conv-mtj", "--mult-dac", "-5"],
     "access multipliers must be nonnegative and finite; dac is -5.0"),
    (["run", "--app", "robert", "--design", "conv-mtj", "--mult-adc", "nan"],
     "access multipliers must be nonnegative and finite; adc is nan"),
    (["run", "--app", "robert", "--design", "conv-mtj", "--mult-read", "inf"],
     "access multipliers must be nonnegative and finite; read is inf"),
    (["run", "--app", "gamma", "--design", "conv-mtj", "--gamma-exponent", "nan"],
     "gamma_exponent must be nonnegative and finite, got nan"),
    (["run", "--app", "gamma", "--design", "conv-mtj", "--gamma-exponent", "-1"],
     "gamma_exponent must be nonnegative and finite, got -1.0"),
    (["fit-gamma", "--exponent", "-1"], "--exponent must be nonnegative and finite, got -1.0"),
    (["fit-gamma", "--exponent", "nan"], "--exponent must be nonnegative and finite, got nan"),
    (["cost", "--length", "0"], "length must be in 1..16777216, got 0"),
    (["cost", "--length", "-1"], "length must be in 1..16777216, got -1"),
    (["cost", "--length", "99999999"], "length must be in 1..16777216, got 99999999"),
])
def test_domain_errors_exit_1(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


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
        f"error: {costs}:1: unit.adc_10bit.energy_pJ: unit costs must be nonnegative and "
        f"finite; energy_pJ is nan\n")


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
