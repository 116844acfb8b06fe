"""One field table drives the config file keys and the command-line flags.

For every ExperimentConfig field the file key alone, the flag alone, and
both (the flag wins) must give the same config; and every leaf of
ExperimentConfig must have a table row.
"""

import dataclasses

import pytest

from stochmem import cli
from stochmem.config import FIELD_BY_KEY, FIELDS, load_cost_config, parse_bool, read_pairs
from stochmem.harness import ExperimentConfig

# two values per key, both different from the default
SAMPLES = {
    "app": ("gamma", "kde"), "design": ("conv-mtj", "stochmem"), "length": ("77", "300"),
    "seed": ("5", "7"), "dims": ("7x5", "9x3"), "input_seed": ("11", "12"),
    "input": ("a.pgm", "b.pgm"),
    "write_sigma": ("0.01", "0.02"), "read_sigma": ("0.03", "0.04"),
    "theta": ("0.2", "0.3"), "delta": ("0.05", "0.15"), "gamma_exponent": ("0.5", "2.2"),
    "bernstein_degree": ("3", "9"), "mult_adc": ("0.3", "0.4"),
    "mult_write": ("0.5", "0.6"), "mult_read": ("0.7", "0.8"), "mult_dac": ("0.2", "0.9"),
    "free_run": ("true", "false"), "jobs": ("2", "3"),
}


def _argv(field, value) -> list[str]:
    if field.parse is parse_bool:
        return [field.flag if parse_bool(value) else "--no-" + field.flag[2:]]
    return [field.flag, value]


def _config(tmp_path, keys: dict[str, str], argv: list[str]) -> ExperimentConfig:
    path = tmp_path / "run.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    args = cli.build_parser().parse_args(["run", "--config", str(path)] + argv)
    return cli._config_from_args(args)


def _get(cfg, attr: str):
    for name in attr.split("."):
        cfg = getattr(cfg, name)
    return cfg


def _leaves(obj, prefix=""):
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        if dataclasses.is_dataclass(value):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


@pytest.mark.parametrize("field", FIELDS, ids=lambda f: f.key)
def test_file_key_and_flag_give_the_same_config(field, tmp_path):
    a, b = SAMPLES[field.key]
    from_file = _config(tmp_path, {field.key: a}, [])
    from_flag = _config(tmp_path, {}, _argv(field, a))
    both = _config(tmp_path, {field.key: b}, _argv(field, a))
    assert from_file == from_flag == both
    assert _get(from_file, field.attr) == field.parse(a)
    assert _get(ExperimentConfig(), field.attr) != field.parse(a)
    assert _get(_config(tmp_path, {field.key: b}, []), field.attr) == field.parse(b)


def test_every_config_leaf_has_one_row():
    attrs = [f.attr for f in FIELDS]
    assert sorted(attrs) == sorted(_leaves(ExperimentConfig()))
    assert len({f.key for f in FIELDS}) == len({f.flag for f in FIELDS}) == len(FIELDS)
    assert set(SAMPLES) == {f.key for f in FIELDS}


def test_no_free_run_flag_clears_the_file_key(tmp_path):
    assert _config(tmp_path, {"free_run": "yes"}, []).dsc_free_run is True
    assert _config(tmp_path, {"free_run": "yes"}, ["--no-free-run"]).dsc_free_run is False


@pytest.mark.parametrize("argv,message", [
    (["--length", "many"], "--length: invalid literal"),
    (["--app", "sobel"], "--app: unknown application"),
])
def test_flags_parse_errors_name_the_flag(tmp_path, argv, message):
    with pytest.raises(ValueError, match=message):
        _config(tmp_path, {}, argv)


def test_file_errors_name_line_and_key(tmp_path):
    with pytest.raises(ValueError, match=r"run.cfg:2: length: invalid literal"):
        _config(tmp_path, {"app": "gamma", "length": "many"}, [])
    with pytest.raises(ValueError, match=r"run.cfg:1: unknown key 'lenght'"):
        _config(tmp_path, {"lenght": "16"}, [])


@pytest.mark.parametrize("key,verb", (("dims", "sizes"), ("input_seed", "seeds")),
                         ids=("dims", "input_seed"))
def test_dims_with_an_input_file_fail_loudly(tmp_path, key, verb):
    message = f"{key} {verb} only the synthetic inputs; it cannot be set with input"
    with pytest.raises(ValueError, match=message):
        _config(tmp_path, {key: SAMPLES[key][0], "input": "a.pgm"}, [])
    with pytest.raises(ValueError, match=message):
        _config(tmp_path, {"input": "a.pgm"}, [FIELD_BY_KEY[key].flag, SAMPLES[key][0]])


@pytest.mark.parametrize("line,message", [
    ("unit.adc_10bit.area_um2 = 4e4x", r"costs.txt:2: unit.adc_10bit.area_um2: could not convert"),
    ("profile.robert.n_lfsr = 2.5", r"costs.txt:2: profile.robert.n_lfsr: invalid literal"),
    ("profile.sobel.n_lfsr = 2", r"costs.txt:2: unknown application 'sobel'"),
    ("profile.kde.n_streams = -40", r"costs.txt:2: profile.kde.n_streams: profile counts and "
                                    r"areas must be nonnegative"),
    ("profile.gamma.mem_area_analog_um2 = -1",
     r"costs.txt:2: profile.gamma.mem_area_analog_um2: profile counts and areas"),
    ("unit.asc.energy_pJ = -0.5", r"costs.txt:2: unit.asc.energy_pJ: unit costs must be"),
    ("unit.adc_10bit.energy_pJ = nan", r"costs.txt:2: unit.adc_10bit.energy_pJ: unit costs must "
                                       r"be nonnegative and finite; energy_pJ is nan"),
    ("unit.analog_cell.write_energy_pJ = inf", r"costs.txt:2: unit.analog_cell.write_energy_pJ: "
                                               r"unit costs .* write_energy_pJ is inf"),
    ("profile.kde.mem_area_analog_um2 = nan", r"costs.txt:2: profile.kde.mem_area_analog_um2: "
                                              r"profile counts .* mem_area_analog_um2 is nan"),
])
def test_cost_file_value_errors_name_the_line(tmp_path, line, message):
    path = tmp_path / "costs.txt"
    path.write_text(f"# overrides\n{line}\n")
    with pytest.raises(ValueError, match=message):
        load_cost_config(path)


def test_read_pairs_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("# header\n\n a = 1 # trailing\nb=x=y\n")
    assert list(read_pairs(path)) == [(f"{path}:3", "a", "1"), (f"{path}:4", "b", "x=y")]
    path.write_text("a 1\n")
    with pytest.raises(ValueError, match=f"{path}:1: expected key=value"):
        list(read_pairs(path))
