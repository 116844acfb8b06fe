"""One field table drives the config file keys and the command-line flags.

For every ExperimentConfig field the file key alone, the flag alone, and
both (the flag wins) must give the same config; and every leaf of
ExperimentConfig must have a table row.
"""

import dataclasses
from pathlib import Path

import pytest

from stochmem import cli
from stochmem.config import FIELD_BY_KEY, FIELDS, load_costs, read_pairs
from stochmem.costs import CostModel
from stochmem.harness import ExperimentConfig

COST_FILES = Path(__file__).parent / "costs"

# two values per key, both different from the default
SAMPLES = {
    "app": ("gamma", "kde"), "design": ("conv-mtj", "stochmem"), "length": ("77", "300"),
    "seed": ("5", "7"), "dims": ("7x5", "9x3"), "input_seed": ("11", "12"),
    "input": ("a.pgm", "b.pgm"),
    "write_sigma": ("0.01", "0.02"), "read_sigma": ("0.03", "0.04"),
    "theta": ("0.2", "0.3"), "delta": ("0.05", "0.15"), "gamma_exponent": ("0.5", "2.2"),
    "bernstein_degree": ("3", "9"),
    "costs": (str(COST_FILES / "dac_once.txt"), str(COST_FILES / "dac_halved.txt")),
    "jobs": ("2", "3"),
}
# the access multipliers, once the mult_<event> rows, are the mult.<event>
# keys of a cost file: two values per event, both different from the default
MULT_SAMPLES = {"adc": ("0.3", "0.6"), "write": ("0.3", "0.6"), "read": ("0.5", "2"),
                "dac": ("1", "0.9")}


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
        # a cost model is one value, read from one cost file
        if dataclasses.is_dataclass(value) and not isinstance(value, CostModel):
            yield from _leaves(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name


@pytest.mark.parametrize(
    "field,event",
    [pytest.param(f, None, id=f.key) for f in FIELDS]
    + [pytest.param(FIELD_BY_KEY["costs"], e, id=f"mult_{e}") for e in MULT_SAMPLES])
def test_file_key_and_flag_give_the_same_config(field, event, tmp_path):
    a, b = SAMPLES[field.key]
    if event is not None:
        paths = [tmp_path / f"{event}_{v}.txt" for v in MULT_SAMPLES[event]]
        for path, v in zip(paths, MULT_SAMPLES[event]):
            path.write_text(f"mult.{event} = {v}\n")
        a, b = map(str, paths)
    from_file = _config(tmp_path, {field.key: a}, [])
    from_flag = _config(tmp_path, {}, [field.flag, a])
    both = _config(tmp_path, {field.key: b}, [field.flag, a])
    assert from_file == from_flag == both
    assert _get(from_file, field.attr) == field.parse(a)
    assert _get(ExperimentConfig(), field.attr) != field.parse(a)
    assert _get(_config(tmp_path, {field.key: b}, []), field.attr) == field.parse(b)
    if event is not None:
        assert getattr(from_file.costs.multipliers, event) == float(MULT_SAMPLES[event][0])


def test_every_config_leaf_has_one_row():
    attrs = [f.attr for f in FIELDS]
    assert sorted(attrs) == sorted(_leaves(ExperimentConfig()))
    assert len({f.key for f in FIELDS}) == len({f.flag for f in FIELDS}) == len(FIELDS)
    assert set(SAMPLES) == {f.key for f in FIELDS}


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
    # past the float range, a count would raise OverflowError when priced
    pytest.param("profile.kde.n_streams = 1" + "0" * 400,
                 r"costs.txt:2: profile.kde.n_streams: profile counts and areas must be "
                 r"nonnegative and finite; n_streams is 10{400}$", id="count-past-the-float-range"),
    ("profile.gamma.mem_area_analog_um2 = -1",
     r"costs.txt:2: profile.gamma.mem_area_analog_um2: profile counts and areas"),
    ("unit.asc.energy_pJ = -0.5", r"costs.txt:2: unit.asc.energy_pJ: unit costs must be"),
    ("unit.adc_10bit.energy_pJ = nan", r"costs.txt:2: unit.adc_10bit.energy_pJ: unit costs must "
                                       r"be nonnegative and finite; energy_pJ is nan"),
    ("unit.analog_cell.write_energy_pJ = inf", r"costs.txt:2: unit.analog_cell.write_energy_pJ: "
                                               r"unit costs .* write_energy_pJ is inf"),
    ("profile.kde.mem_area_analog_um2 = nan", r"costs.txt:2: profile.kde.mem_area_analog_um2: "
                                              r"profile counts .* mem_area_analog_um2 is nan"),
    ("unit.asc = 1", r"costs.txt:2: unknown key 'unit.asc'"),
    ("profile.kde.bogus = 1", r"costs.txt:2: unknown profile field 'bogus'"),
    ("unit.adc_10bit.write_energy_pJ = 1", r"costs.txt:2: unknown unit field 'write_energy_pJ'; "
                                           r"unit.adc_10bit has fields area_um2, energy_pJ$"),
    ("mult.bogus = 1", r"costs.txt:2: unknown access multiplier 'bogus'"),
    ("mult.dac = -5", r"costs.txt:2: mult.dac: access multipliers must be nonnegative and "
                      r"finite; dac is -5.0"),
    ("mult.write = nan", r"costs.txt:2: mult.write: access multipliers .* write is nan"),
    ("mult.read = 1x", r"costs.txt:2: mult.read: could not convert"),
    ("mult.dac.x = 1", r"costs.txt:2: unknown key 'mult.dac.x'"),
])
def test_cost_file_value_errors_name_the_line(tmp_path, line, message):
    path = tmp_path / "costs.txt"
    path.write_text(f"# overrides\n{line}\n")
    with pytest.raises(ValueError, match=message):
        load_costs(path)


def test_read_pairs_skips_comments_and_blank_lines(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("# header\n\n a = 1 # trailing\nb=x=y\n")
    assert list(read_pairs(path)) == [(f"{path}:3", "a", "1"), (f"{path}:4", "b", "x=y")]
    path.write_text("a 1\n")
    with pytest.raises(ValueError, match=f"{path}:1: expected key=value"):
        list(read_pairs(path))


def test_read_pairs_rejects_a_key_set_twice(tmp_path):
    path = tmp_path / "pairs.txt"
    path.write_text("length = 64\n# again\nseed = 1\nlength = 16\n")
    with pytest.raises(ValueError, match=f"^{path}:4: length is already set on line 1$"):
        list(read_pairs(path))
