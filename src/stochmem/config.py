"""Run and cost configuration from flat key=value files and command-line flags.

FIELDS is the one table of ExperimentConfig fields; a row gives the file key
and the parse function both sources use, and the key spells the flag.  A run
config is built from the ExperimentConfig defaults, then the keys of the
--config file, then the flags given; each step overrides the one before, and
ExperimentConfig checks the result; the costs value is a cost file, which
load_costs reads.  read_pairs reads every file: one key = value per line, each
key at most once, '#' starts a comment, and errors name path:line.  What each
app reads, and how its streams are wired, is circuits.WIRING, not config.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path

from .circuits import AppKind
from .costs import CostModel, SystemDesign
from .harness import ExperimentConfig
from .synth import INPUT_DIMS


def parse_dims(spec: str) -> tuple[int, int]:
    """Parse 'WxH' (e.g. 128x128) into (width, height); ExperimentConfig checks
    that both are positive."""
    try:
        w, h = (int(p) for p in spec.lower().split("x"))
    except ValueError:
        raise ValueError(f"dims must be WxH, e.g. 128x128; got {spec!r}") from None
    return w, h


_UNIT_FIELDS = {"area_um2": float, "energy_pJ": float, "write_energy_pJ": float}
# the memory cells, the only units whose writes costs._units charges
_WRITE_UNITS = ("sram_cell", "analog_cell")
_PROFILE_FIELDS = {"n_streams": int, "n_lfsr": int, "mem_area_digital_um2": float,
                   "mem_area_analog_um2": float}


def load_costs(path) -> CostModel:
    """The default CostModel with the overrides of a cost file: unit costs
    (``unit.<name>.<field>``), profiles (``profile.<app>.<field>``) and access
    multipliers (``mult.<event>``).  The fields are the keys of _UNIT_FIELDS
    (write_energy_pJ only on _WRITE_UNITS) and _PROFILE_FIELDS, the events
    those of AccessMultipliers; unlisted values keep their defaults."""
    default = CostModel()
    units, profiles, multipliers = dict(default.units), dict(default.profiles), default.multipliers
    for where, key, value in read_pairs(path):
        parts = key.split(".")
        if (parts[0], len(parts)) not in (("unit", 3), ("profile", 3), ("mult", 2)):
            raise ValueError(f"{where}: unknown key {key!r}")
        if parts[0] == "mult":
            event = parts[1]
            if event not in multipliers.as_dict():
                raise ValueError(f"{where}: unknown access multiplier {event!r}")
            multipliers = parse_at(lambda v: replace(multipliers, **{event: float(v)}),
                                   value, f"{where}: {key}")
            continue
        kind, name, fld = parts
        if kind == "unit":
            if name not in units:
                raise ValueError(f"{where}: unknown unit {name!r}")
            if fld not in _UNIT_FIELDS:
                raise ValueError(f"{where}: unknown unit field {fld!r}")
            if fld == "write_energy_pJ" and name not in _WRITE_UNITS:
                raise ValueError(f"{where}: {name} charges no writes; write_energy_pJ is a "
                                 f"field of {' and '.join(_WRITE_UNITS)} only")
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
    return CostModel(units, profiles, multipliers)


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
    Field("length", "length", int, f"bitstream length (default {ExperimentConfig.length})"),
    Field("seed", "global_seed", int, "global seed"),
    Field("dims", "dims", parse_dims, "synthetic image size WxH (default %dx%d)" % INPUT_DIMS),
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
    Field("costs", "costs", load_costs, "cost file of unit.<name>.<field>, "
          "profile.<app>.<field> and mult.<event> overrides of the cost model"),
    Field("jobs", "jobs", int, "worker processes, at most one per CPU"),
)
FIELD_BY_KEY = {f.key: f for f in FIELDS}


def read_pairs(path) -> Iterator[tuple[str, str, str]]:
    """(``path:line``, key, value) for every key=value line of a flat file."""
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, value = (s.strip() for s in line.split("=", 1))
            if key in seen:
                raise ValueError(f"{path}:{lineno}: {key} is already set on line {seen[key]}")
            seen[key] = lineno
            yield f"{path}:{lineno}", key, value


def parse_at(parse: Callable[[str], object], value, where: str):
    """parse(value), with a ValueError prefixed by where the value came from."""
    try:
        return parse(value)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from None


def read_values(path, reader: str = "run", keys=FIELD_BY_KEY) -> dict[str, object]:
    """Parsed values of a config file, by key; the command reader reads only keys."""
    values = {}
    for where, key, value in read_pairs(path):
        if key not in FIELD_BY_KEY:
            raise ValueError(f"{where}: unknown key {key!r}")
        if key not in keys:
            raise ValueError(f"{where}: {reader} does not read {key}")
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
