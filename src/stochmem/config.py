"""Run and cost configuration from flat key=value files and command-line flags.

FIELDS is the one table of ExperimentConfig fields; a row gives the file key
and the parse function both sources use, and the key spells the flag.  A run
config is built from the ExperimentConfig defaults, then the keys of the
--config file, then the flags given; each step overrides the one before, and
ExperimentConfig checks the result.  The costs value is a cost file, which
load_costs reads against the cost records' own dataclass fields and types;
_with sets both.  read_pairs reads every file: one key = value per line, each
key at most once, '#' starts a comment, and errors name path:line.  What each
app reads, and how its streams are wired, is circuits.WIRING, not config.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass, replace
from pathlib import Path
from typing import get_type_hints

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


def load_costs(path) -> CostModel:
    """The default CostModel with the overrides of a cost file: unit costs
    (``unit.<name>.<field>``), profiles (``profile.<app>.<field>``) and access
    multipliers (``mult.<event>``).  A key names one record of the model and
    one of that record's dataclass fields, and its value is parsed as the
    field's declared type; unlisted values keep their defaults."""
    model = CostModel()
    for where, key, value in read_pairs(path):
        *head, name = key.split(".")
        if head == ["mult"]:
            what, at, record = "access multiplier", ("multipliers",), model.multipliers
        elif len(head) == 2 and head[0] == "unit":
            if head[1] not in model.units:
                raise ValueError(f"{where}: unknown unit {head[1]!r}")
            what, at, record = "unit field", ("units", head[1]), model.units[head[1]]
        elif len(head) == 2 and head[0] == "profile":
            app = parse_at(AppKind.from_name, head[1], where)
            what, at, record = "profile field", ("profiles", app), model.profiles[app]
        else:
            raise ValueError(f"{where}: unknown key {key!r}")
        types = get_type_hints(type(record))
        if name not in types:
            raise ValueError(f"{where}: unknown {what} {name!r}; {'.'.join(head)} has "
                             f"fields {', '.join(types)}")
        model = parse_at(lambda v: _with(model, (*at, name), types[name](v)), value,
                         f"{where}: {key}")
    return model


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


def _with(obj, path, value):
    """obj with the value at path set; each step is an attribute or a dict key."""
    if not path:
        return value
    head, *rest = path
    if isinstance(obj, dict):
        return {**obj, head: _with(obj[head], rest, value)}
    return replace(obj, **{head: _with(getattr(obj, head), rest, value)})


def resolve_config(values: dict[str, object]) -> ExperimentConfig:
    """The defaults with ``values`` (parsed, by key) set."""
    cfg = ExperimentConfig()
    for key, value in values.items():
        cfg = _with(cfg, FIELD_BY_KEY[key].attr.split("."), value)
    return cfg
