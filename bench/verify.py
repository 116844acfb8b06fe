"""Output verification against the committed reference (``reference.json``).

For a seed the reference covers, every run's record digest (output image
bytes, inaccuracy, both energy totals; or the sweep CSV row) must equal the
committed one.  For any other seed the benchmark can still check that every
repetition repeats the first one exactly, that the seed-independent fields
(energy and area) equal the reference, and that the mean inaccuracy over the
workload's runs stays under a ceiling derived from the reference seeds.  The
ceiling is on the mean because one run of a binary-output app (frame, kde) on
a small image moves in steps of 100 / pixels percent.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

REFERENCE = Path(__file__).with_name("reference.json")
DEFAULT_SEED = 1
HELD_OUT_SEED = 2
REFERENCE_SEEDS = range(16)

# mean-inaccuracy ceiling for seeds without digests, as a multiple of the
# largest mean over the reference seeds; seeds 16-27 reached 1.17x
_CEILING_SCALE = 1.5

# energy reductions the paper reports and this commit's cost model reproduces:
# name -> (value, decimals it is checked to)
PAPER_EXPECTED = {
    "paper.mtj_vs_lfsr_pct.analytic": (45.75, 2),
    "paper.stoch_vs_mtj_pct.analytic": (11.10, 2),
    "paper.mtj_vs_lfsr_pct.measured": (52.1, 1),
    "paper.stoch_vs_mtj_pct.measured": (6.0, 1),
}


def load_reference(path=REFERENCE) -> dict:
    return json.loads(Path(path).read_text())


class Checker:
    """Checks every repetition of one workload at one seed."""

    def __init__(self, entry: dict, seed: int):
        self.seed = seed
        self.fixed: dict[str, str] = entry["fixed"]
        digests = entry["digests"].get(str(seed))
        self.digests = None if digests is None else dict(zip(sorted(self.fixed), digests.split()))
        self.csv_sha256: str | None = entry.get("csv_sha256", {}).get(str(seed))
        self.ceiling = _CEILING_SCALE * entry["mean_inaccuracy_max"]
        self.first: dict[str, str] | None = None

    def mode(self) -> str:
        if self.digests is None:
            return f"invariants only (the reference has no digests for seed {self.seed})"
        label = {DEFAULT_SEED: " (default seed)", HELD_OUT_SEED: " (held-out seed)"}
        return f"reference digests for seed {self.seed}{label.get(self.seed, '')}"

    def check(self, records: dict, csv_sha256: str | None = None) -> tuple[list[str], list[str]]:
        """Returns (failed runs with reasons, failures not tied to one run)."""
        failed = []
        for key in sorted(set(self.fixed) | set(records)):
            reason = self._reason(key, records.get(key))
            if reason:
                failed.append(f"{key}: {reason}")
        if self.first is None:
            self.first = {k: r.digest for k, r in records.items()
                          if not isinstance(r, Exception)}
        other = []
        if (csv_sha256 is not None and self.csv_sha256 is not None
                and not failed and csv_sha256 != self.csv_sha256):
            other.append(f"sweep CSV digest {csv_sha256[:16]} != reference {self.csv_sha256[:16]}")
        if self.digests is None:
            mean = mean_inaccuracy(records)
            if not mean <= self.ceiling:
                other.append(f"mean inaccuracy {mean:.4f} above {self.ceiling:.4f}")
        return failed, other

    def _reason(self, key: str, rec) -> str | None:
        if rec is None:
            return "missing"
        if isinstance(rec, Exception):
            return f"raised {type(rec).__name__}: {rec}"
        if key not in self.fixed:
            return "not in the reference"
        if self.first is not None and self.first.get(key, rec.digest) != rec.digest:
            return f"digest {rec.digest} differs from the first repetition's"
        if self.digests is not None:
            ref = self.digests.get(key)
            return None if ref == rec.digest else f"digest {rec.digest} != reference {ref}"
        if rec.fixed != self.fixed[key]:
            return f"seed-independent fields {rec.fixed!r} != reference {self.fixed[key]!r}"
        return None


def mean_inaccuracy(records: dict) -> float:
    ok = [r.inaccuracy for r in records.values() if not isinstance(r, Exception)]
    return sum(ok) / len(ok) if ok else math.nan


def check_paper(summary: dict[str, float]) -> list[str]:
    return [f"{name} = {summary[name]:.4f}, expected {value:.{nd}f}"
            for name, (value, nd) in PAPER_EXPECTED.items()
            if round(summary[name], nd) != value]
