#!/usr/bin/env python3
"""Alternating pairs of benchmark runs in two checkouts, and their verdict.

    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        --workload length-sweep --seed 1 --seconds 25 --pairs 10 [--json out.json]

Pair k runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
in each checkout, the parent first in even pairs and the change first in odd
ones, so that a slow host phase falls on both sides alike.  ``--workload`` may
be given several times; each pair then runs every workload.  For each workload
and each end-to-end metric of the change's BENCHMARK.json (read, never
written) it prints both sides' medians and quartiles, the parent's
interquartile range, the pairs the change won, and a verdict:

* ``gain``: the change won at least nine tenths of the pairs (ties count for
  neither side) and its median is better than the parent's by more than the
  parent's interquartile range;
* ``regressed``: the change's median is worse than the parent's by more than
  the metric's bound, a fraction of the parent's median;
* ``unresolved``: the parent's interquartile range is wider than the bound, so
  a regression within it could not be seen, unless every run of the change
  reads better than every run of the parent;
* ``within bound``: none of the above.

A run whose last line reports ``correct`` false, or a failed run, stops the
script: timings of wrong outputs compare nothing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def wins(parent: list[float], change: list[float], better: str) -> int:
    """Pairs in which the change reads strictly better than the parent."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """The verdict on paired samples of one metric (see the module docstring);
    parent[k] and change[k] are pair k, and bound is a fraction."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need at least two pairs of equal-length samples")
    sign = 1 if better == "lower" else -1
    p25, parent_median, p75 = statistics.quantiles(parent, n=4)
    change_median = statistics.median(change)
    iqr = p75 - p25
    if wins(parent, change, better) >= 0.9 * len(parent) and \
            sign * (parent_median - change_median) > iqr:
        return "gain"
    if sign * (change_median - parent_median) > bound * abs(parent_median):
        return "regressed"
    all_better = all(sign * (p - c) > 0 for p in parent for c in change)
    if iqr > bound * abs(parent_median) and not all_better:
        return "unresolved"
    return "within bound"


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict[str, float]:
    """End-to-end metric values of one untraced benchmark run in checkout."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["correct"] is not True or result["failed"]:
        sys.exit(f"error: {checkout}: {workload} seed {seed} did not verify: {result}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def summary(parent: list[float], change: list[float], better: str, bound: float) -> dict:
    sides = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, q2, q3 = statistics.quantiles(values, n=4)
        sides[side] = {"median": q2, "q1": q1, "q3": q3, "runs": values}
    return {**sides, "parent_iqr": sides["parent"]["q3"] - sides["parent"]["q1"],
            "change_wins": wins(parent, change, better), "pairs": len(parent),
            "verdict": verdict(parent, change, better, bound)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--json", type=Path, help="also write the summary here")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    runs = {(w, side): [] for w in args.workload for side in ("parent", "change")}
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for workload in args.workload:
            for side in order:
                runs[workload, side].append(
                    run_once(getattr(args, side), workload, args.seed, args.seconds))
        print(f"pair {k + 1}/{args.pairs} done", file=sys.stderr, flush=True)
    out = {}
    for workload in args.workload:
        for name, m in metrics.items():
            parent = [r[name] for r in runs[workload, "parent"]]
            change = [r[name] for r in runs[workload, "change"]]
            s = out[f"{workload}/{name}"] = summary(parent, change, m["better"], m["bound"])
            print(f"{workload:<13} {name:<18} parent {s['parent']['median']:.4g} "
                  f"[{s['parent']['q1']:.4g}, {s['parent']['q3']:.4g}]  change "
                  f"{s['change']['median']:.4g} [{s['change']['q1']:.4g}, "
                  f"{s['change']['q3']:.4g}]  parent IQR {s['parent_iqr']:.4g} {m['unit']}  "
                  f"wins {s['change_wins']}/{s['pairs']}  {s['verdict']}")
    if args.json is not None:
        args.json.write_text(json.dumps({"seed": args.seed, "seconds": args.seconds,
                                         "metrics": out}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
