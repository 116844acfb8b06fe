"""Workload definitions for the host-time benchmark.

Every workload runs all 5 apps x 3 designs through the public harness API
(``harness.run_experiment`` or ``harness.sweep``) in one process with
``jobs=1``.  The workload seed sets both ``global_seed`` and ``input_seed``.

Sizes are scaled down from the paper's 128x128 grid so that one repetition
takes 1-3 s on a 2-core host and a 20 s run holds several repetitions.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

from stochmem import circuits, harness
from stochmem.circuits import AppKind, AppParams
from stochmem.costs import SystemDesign
from stochmem.harness import ExperimentConfig
from stochmem.lfsr import LfsrCycle, LfsrSpec

# streams each pixel asks for, as the harness stream plans wire them
_GAMMA_DEGREE = AppParams().bernstein_degree
STREAMS_PER_PIXEL = {
    AppKind.ROBERT: 5,
    AppKind.MEDIAN: 9,
    AppKind.FRAME: 2,
    AppKind.GAMMA: 2 * _GAMMA_DEGREE + 1,
    AppKind.KDE: 1 + circuits.KDE_HISTORY,
}


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int]          # (width, height)
    lengths: tuple[int, ...]
    sweep_seeds: int               # > 0: one harness.sweep call; 0: one run per app x design
    why: str

    @property
    def pixels(self) -> int:
        return self.dims[0] * self.dims[1]

    def logical_bits(self) -> int:
        """Stream bits one repetition asks for (not what the engine generates)."""
        per_length = sum(self.pixels * n for n in STREAMS_PER_PIXEL.values()) * len(SystemDesign)
        return per_length * sum(self.lengths) * max(1, self.sweep_seeds)

    def configs(self, seed: int) -> list[ExperimentConfig]:
        return _configs(self.dims, self.lengths, seed)


def _configs(dims, lengths, seed: int) -> list[ExperimentConfig]:
    return [ExperimentConfig(app=app, design=design, length=length, dims=dims,
                             global_seed=seed, input_seed=seed, jobs=1)
            for app in AppKind for design in SystemDesign for length in lengths]


WORKLOADS = {w.name: w for w in (
    Workload("grid-L1024", (32, 32), (1024,), 0,
             "paper headline length L=1024 on a 32x32 grid; stream generation dominates"),
    Workload("length-sweep", (24, 24), (128, 256, 512, 1024), 2,
             "harness.sweep over the paper lengths, 120 runs; per-run fixed costs weigh 8x more"),
    Workload("short-stream", (160, 160), (32,), 0,
             "many pixels, L=32: memory path, operand planes, golden and logic are large shares"),
    Workload("wide-long", (512, 1), (8192,), 0,
             "one 512-pixel row at L=8192: a block holds 4.2M cells against the 2M budget"),
)}


def warm_up(workload: Workload, seed: int) -> float:
    """Fill the lazy caches a timed run would otherwise fill; returns the
    seconds spent in input synthesis (the first ``resolve_inputs``)."""
    t0 = time.perf_counter()
    for app in AppKind:
        harness.resolve_inputs(ExperimentConfig(app=app, dims=workload.dims, input_seed=seed))
    inputs_s = time.perf_counter() - t0
    LfsrCycle.for_spec(LfsrSpec())
    # one tiny run per app x design fills the remaining private caches
    for cfg in _configs((4, 4), (64,), seed):
        harness.run_experiment(cfg)
    return inputs_s


def _sha(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


DIGEST_HEX = 12


@dataclass(frozen=True)
class Record:
    """Verified outcome of one run (or one sweep CSV row)."""

    digest: str        # over every output field below
    inaccuracy: float
    fixed: str         # the fields that do not depend on the seed
    fields: tuple[str, ...]


def _report_record(report) -> Record:
    fields = (_sha(report.output.data.tobytes()), repr(report.inaccuracy_percent),
              repr(report.energy.total), repr(report.energy_default.total))
    return Record(_sha("|".join(fields))[:DIGEST_HEX], report.inaccuracy_percent,
                  "|".join(fields[2:]), fields)


def _row_record(row: str) -> Record:
    cols = row.split(",")
    return Record(_sha(row)[:DIGEST_HEX], float(cols[4]), ",".join(cols[5:]), tuple(cols))


def run_key(app: str, design: str, length, seed_offset=None) -> str:
    key = f"{app}/{design}/{length}"
    return key if seed_offset is None else f"{key}/+{seed_offset}"


def run_repetition(workload: Workload, seed: int, clock) -> tuple[float, dict, list[str]]:
    """Run one repetition; returns (host seconds, {key: Record | Exception}, csv lines).

    Only the harness calls are inside the timed span; building records is not.
    """
    if workload.sweep_seeds:
        template = ExperimentConfig(dims=workload.dims, global_seed=seed, input_seed=seed)
        keys = [run_key(c.app.value, c.design.value, c.length, k)
                for c in workload.configs(seed) for k in range(workload.sweep_seeds)]
        t0 = clock()
        try:
            lines = harness.sweep(template, lengths=workload.lengths,
                                  n_seeds=workload.sweep_seeds, jobs=1)
        except Exception as exc:  # every row of a sweep that raised counts as failed
            return clock() - t0, {k: exc for k in keys}, []
        wall = clock() - t0
        out = {}
        for row in lines[1:]:
            cols = row.split(",")
            out[run_key(cols[0], cols[1], cols[2], int(cols[3]) - seed)] = _row_record(row)
        return wall, out, lines

    results = {}
    t0 = clock()
    for cfg in workload.configs(seed):
        key = run_key(cfg.app.value, cfg.design.value, cfg.length)
        try:
            results[key] = harness.run_experiment(cfg)
        except Exception as exc:  # a run that raises counts as failed
            results[key] = exc
    wall = clock() - t0
    return wall, {k: r if isinstance(r, Exception) else _report_record(r)
                  for k, r in results.items()}, []


def csv_digest(lines: list[str]) -> str:
    return _sha("\n".join(lines))


def paper_summary(records: dict) -> dict[str, float]:
    """Five-app accuracy gap and energy cuts from one grid repetition.

    ``analytic`` uses ``energy_default`` (profile operand counts), ``measured``
    uses ``energy`` (the harness's measured per-pixel access counts).
    """
    def by(app, design):
        return next(r for k, r in records.items()
                    if k.startswith(f"{app.value}/{design.value}/"))

    lfsr, mtj, stoch = (SystemDesign.CONV_LFSR, SystemDesign.CONV_MTJ, SystemDesign.STOCHMEM)
    apps = list(AppKind)
    gap = sum(by(a, stoch).inaccuracy - by(a, mtj).inaccuracy for a in apps) / len(apps)
    out = {"paper.gap_pp": gap}
    for model, idx in (("analytic", 3), ("measured", 2)):
        def energy(a, d):
            return float(by(a, d).fields[idx])
        out[f"paper.mtj_vs_lfsr_pct.{model}"] = 100 * (
            1 - sum(energy(a, mtj) / energy(a, lfsr) for a in apps) / len(apps))
        out[f"paper.stoch_vs_mtj_pct.{model}"] = 100 * (
            1 - sum(energy(a, stoch) / energy(a, mtj) for a in apps) / len(apps))
    return out
