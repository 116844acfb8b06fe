"""Blocks, block memory, memory peak and wall time of each app's runs against
the pixel block budget, or windows and window memory against the stream
window budget.

For each benchmark workload's (dims, length), each app and each candidate
`harness._BLOCK_PAIRS` budget of (source, pixel) pairs, the script prints

* blocks: the pixel blocks `harness._block_slices` cuts a one-worker run into;
* block MB: the values of the largest block, four 64-bit values a pair:
  sources x pixels x 32 / 1e6;
* peak MB: the largest tracemalloc peak of one run over the three designs;
* wall ms: the fastest of --repeats runs, summed over the three designs.

With --windows it varies `harness._WINDOW_CELLS` instead, at the default block
budget, and prints windows, the windows `harness._window_slices` cuts the
largest block into, and window MB, the streams of its largest window:
sources x pixels x 64 * words_for(length) / 8e6.

With --faults it prints, for each workload and budget, the minor page faults
of one warm repetition of the workload's runs (every app and design at each of
its lengths above), the median of --repeats, each budget in a fresh process:
a repetition that faults thousands of pages is one after which glibc trimmed
the heap that the blocks freed.

The budgets take turns within each repeat, so a slow phase of the host falls
on all of them alike.  Run from the repo root:

    PYTHONPATH=src python scripts/block_budget_table.py [--repeats N] [--budgets 50e3,75e3]
    PYTHONPATH=src python scripts/block_budget_table.py --windows 4e6,8e6,16e6
    PYTHONPATH=src python scripts/block_budget_table.py --faults [--windows 4e6,8e6]
"""

import argparse
import multiprocessing
import resource
import statistics
import time
import tracemalloc
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from stochmem import harness
from stochmem.bitstream import words_for
from stochmem.circuits import AppKind, stream_plan
from stochmem.costs import SystemDesign
from stochmem.harness import ExperimentConfig

# (workload, dims, length) of bench/workloads.py; length-sweep runs four lengths
SHAPES = (
    ("grid-L1024", (32, 32), 1024),
    *(("length-sweep", (24, 24), length) for length in (128, 256, 512, 1024)),
    ("short-stream", (160, 160), 32),
    ("wide-long", (512, 1), 8192),
)
BUDGETS = (50_000, 75_000, 100_000, 125_000)


def _counts(text: str) -> list[int]:
    return [int(float(b)) for b in text.split(",")]


def _peak_bytes(cfg: ExperimentConfig) -> int:
    tracemalloc.start()
    try:
        harness.run_experiment(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _wall(cfgs: list[ExperimentConfig]) -> float:
    t0 = time.perf_counter()
    for cfg in cfgs:
        harness.run_experiment(cfg)
    return time.perf_counter() - t0


def _warm_faults(name: str, budget: int, workload: str, repeats: int) -> int:
    """Median minor faults of one warm repetition of workload's runs, with
    harness.<name> set to budget; the first repetition warms the caches."""
    setattr(harness, name, budget)
    cfgs = [ExperimentConfig(app=app, design=d, length=length, dims=dims)
            for w, dims, length in SHAPES if w == workload for app in AppKind
            for d in SystemDesign]
    faults = []
    for _ in range(repeats + 1):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        _wall(cfgs)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    return int(statistics.median(faults[1:]))


def _fault_table(name: str, budgets: list[int], scale: float, repeats: int) -> None:
    print(f"{'workload':<13} {'budget':>8} {'faults':>8}")
    spawn = multiprocessing.get_context("spawn")
    for workload in dict.fromkeys(w for w, _, _ in SHAPES):
        for budget in budgets:
            with ProcessPoolExecutor(max_workers=1, mp_context=spawn) as pool:
                faults = pool.submit(_warm_faults, name, budget, workload, repeats).result()
            print(f"{workload:<13} {budget / scale:>8.3g} {faults:>8}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--budgets", type=_counts, default=list(BUDGETS),
                    help="comma-separated (source, pixel) pairs per block")
    ap.add_argument("--windows", type=_counts,
                    help="comma-separated stream cells per window, at the default block budget")
    ap.add_argument("--faults", action="store_true",
                    help="print each workload's minor faults per warm repetition")
    args = ap.parse_args()

    if args.windows:
        name, budgets, unit, scale = "_WINDOW_CELLS", args.windows, "window", 1e6
    else:
        name, budgets, unit, scale = "_BLOCK_PAIRS", args.budgets, "block", 1e3
    print(f"numpy {np.__version__}, {unit} budgets in {'M cells' if args.windows else 'k pairs'}"
          f", {'faults median' if args.faults else 'wall best'} of {args.repeats}")
    if args.faults:
        _fault_table(name, budgets, scale, args.repeats)
        return
    saved = getattr(harness, name)
    print(f"{'workload':<13} {'L':>5} {'app':<7} {'sources':>7} {'budget':>8} {unit + 's':>7}"
          f" {unit + ' MB':>9} {'peak MB':>7} {'wall ms':>8}")
    try:
        for workload, dims, length in SHAPES:
            for app in AppKind:
                cfgs = [ExperimentConfig(app=app, design=d, length=length, dims=dims)
                        for d in SystemDesign]
                harness.resolve_inputs(cfgs[0])
                sources = len(stream_plan(app, cfgs[0].params).groups)
                peaks, walls = {}, {b: float("inf") for b in budgets}
                for budget in budgets:
                    setattr(harness, name, budget)
                    peaks[budget] = max(_peak_bytes(cfg) for cfg in cfgs)
                for _ in range(args.repeats):
                    for budget in budgets:
                        setattr(harness, name, budget)
                        walls[budget] = min(walls[budget], _wall(cfgs))
                for budget in budgets:
                    setattr(harness, name, budget)
                    cuts = harness._block_slices(dims[0] * dims[1], sources, 1)
                    pixel_bytes = sources * 4 * 8
                    if args.windows:
                        block = max(hi - lo for lo, hi in cuts)
                        cuts = harness._window_slices(block, length, sources)
                        pixel_bytes = sources * 8 * words_for(length)
                    largest = max(hi - lo for lo, hi in cuts)
                    print(f"{workload:<13} {length:>5} {app.value:<7} {sources:>7}"
                          f" {budget / scale:>8.3g} {len(cuts):>7}"
                          f" {largest * pixel_bytes / 1e6:>9.2f} {peaks[budget] / 1e6:>7.2f}"
                          f" {walls[budget] * 1e3:>8.1f}")
    finally:
        setattr(harness, name, saved)


if __name__ == "__main__":
    main()
