"""Run and cost configuration from flat key=value files and command-line flags.

FIELDS is the one table of ExperimentConfig fields; a row gives the file key
and the parse function both sources use, and the key spells the flag.  A run
config is built from the ExperimentConfig defaults, then the keys of the
--config file, then the flags given; each step overrides the one before, and
ExperimentConfig checks the result.  read_pairs reads every file: one
key = value per line, '#' starts a comment, and errors name path:line.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from .circuits import AppKind
from .costs import DEFAULT_UNIT_COSTS, AppProfile, SystemDesign, UnitCost, default_profile
from .harness import ExperimentConfig

_BOOLEANS = {"1": True, "0": False, "true": True, "false": False, "yes": True, "no": False,
             "on": True, "off": False}


def parse_dims(spec: str) -> tuple[int, int]:
    """Parse 'WxH' (e.g. 128x128) into a positive (width, height)."""
    try:
        w, h = (int(p) for p in spec.lower().split("x"))
    except ValueError:
        w = h = 0
    if w < 1 or h < 1:
        raise ValueError(f"dims must be WxH with positive integers, e.g. 128x128; got {spec!r}")
    return w, h


def parse_bool(spec) -> bool:
    flag = _BOOLEANS.get(str(spec).lower())
    if flag is None:
        raise ValueError(f"expected one of {'/'.join(_BOOLEANS)}, got {spec!r}")
    return flag


@dataclass(frozen=True)
class Field:
    key: str                          # file key
    attr: str                         # ExperimentConfig attribute, dotted for a sub-field
    parse: Callable[[str], object]
    help: str

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")


FIELDS = (
    Field("app", "app", AppKind.from_name, "robert|median|frame|gamma|kde"),
    Field("design", "design", SystemDesign.from_name, "conv-lfsr|conv-mtj|stochmem"),
    Field("length", "length", int, "bitstream length (default 1024)"),
    Field("seed", "global_seed", int, "global seed"),
    Field("dims", "dims", parse_dims, "synthetic image size WxH (default 128x128)"),
    Field("input_seed", "input_seed", int, "seed of the synthetic inputs"),
    Field("input", "input_path", str,
          "input image (PGM, maxval 255), or a directory of PGM frames for frame/kde"),
    Field("write_sigma", "noise.write_sigma", float, "analog write sigma"),
    Field("read_sigma", "noise.read_sigma", float, "analog read sigma"),
    Field("theta", "params.theta", float, "segmentation threshold"),
    Field("delta", "params.delta", float, "density kernel half-width"),
    Field("gamma_exponent", "params.gamma_exponent", float, "power-function exponent"),
    Field("bernstein_degree", "params.bernstein_degree", int,
          "degree of the gamma circuit's Bernstein polynomial"),
    Field("mult_adc", "multipliers.adc", float, "ADC energy multiplier"),
    Field("mult_write", "multipliers.write", float, "write energy multiplier"),
    Field("mult_read", "multipliers.read", float, "read energy multiplier"),
    Field("mult_dac", "multipliers.dac", float, "DAC energy multiplier"),
    Field("free_run", "dsc_free_run", parse_bool,
          "let the comparator LFSR run across pixels instead of reseeding"),
    Field("jobs", "jobs", int, "worker processes"),
)
FIELD_BY_KEY = {f.key: f for f in FIELDS}


def read_pairs(path) -> Iterator[tuple[str, str, str]]:
    """(``path:line``, key, value) for every key=value line of a flat file."""
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            yield f"{path}:{lineno}", key, value


def parse_at(parse: Callable[[str], object], value, where: str):
    """parse(value), with a ValueError prefixed by where the value came from."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_values(path) -> dict[str, object]:
    """Parsed values of a run config file, by key."""
    values = {}
    for where, key, value in read_pairs(path):
        if key not in FIELD_BY_KEY:
            raise ValueError(f"{where}: unknown key {key!r}")
        values[key] = parse_at(FIELD_BY_KEY[key].parse, value, f"{where}: {key}")
    return values


def _with(obj, attr: str, value):
    """obj with the dotted attribute attr set to value."""
    head, _, rest = attr.partition(".")
    return replace(obj, **{head: _with(getattr(obj, head), rest, value) if rest else value})


def resolve_config(values: dict[str, object]) -> ExperimentConfig:
    """The defaults with ``values`` (parsed, by key) set."""
    cfg = ExperimentConfig()
    for key, value in values.items():
        cfg = _with(cfg, FIELD_BY_KEY[key].attr, value)
    return cfg


_UNIT_FIELDS = {"area_um2": float, "energy_pJ": float, "write_energy_pJ": float}
_PROFILE_FIELDS = {"n_streams": int, "n_lfsr": int, "mem_area_digital_um2": float,
                   "mem_area_analog_um2": float}


def load_cost_config(path) -> tuple[dict[str, UnitCost], dict[AppKind, AppProfile]]:
    """Overrides of DEFAULT_UNIT_COSTS (``unit.<name>.<field>``) and of the
    default profiles (``profile.<app>.<field>``); the fields are the keys of
    _UNIT_FIELDS and _PROFILE_FIELDS, and unlisted ones keep their defaults."""
    units = dict(DEFAULT_UNIT_COSTS)
    profiles = {app: default_profile(app) for app in AppKind}
    for where, key, value in read_pairs(path):
        parts = key.split(".")
        if len(parts) != 3 or parts[0] not in ("unit", "profile"):
            raise ValueError(f"{where}: unknown key {key!r}")
        kind, name, fld = parts
        if kind == "unit":
            if name not in units:
                raise ValueError(f"{where}: unknown unit {name!r}")
            if fld not in _UNIT_FIELDS:
                raise ValueError(f"{where}: unknown unit field {fld!r}")
            units[name] = parse_at(
                lambda v: replace(units[name], **{fld: _UNIT_FIELDS[fld](v)}),
                value, f"{where}: {key}")
        else:
            app = parse_at(AppKind.from_name, name, where)
            if fld not in _PROFILE_FIELDS:
                raise ValueError(f"{where}: unknown profile field {fld!r}")
            profiles[app] = parse_at(
                lambda v: replace(profiles[app], **{fld: _PROFILE_FIELDS[fld](v)}),
                value, f"{where}: {key}")
    return units, profiles
