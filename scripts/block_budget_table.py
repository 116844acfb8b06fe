"""Blocks, block memory, memory peak and wall time of each app's runs against
the pixel block budget, or windows and window memory against the stream
window budget.

For each benchmark workload's (dims, length), each app and each candidate
`harness._BLOCK_CELLS` budget, the script prints

* blocks: the pixel blocks `harness._block_slices` cuts a one-worker run into;
* block MB: the streams plus values of the largest block, at one bit a cell:
  sources x pixels x (64 * words_for(length) + `harness._VALUE_CELLS`) / 8e6;
* peak MB: the largest tracemalloc peak of one run over the three designs;
* wall ms: the fastest of --repeats runs, summed over the three designs.

With --windows it varies `harness._WINDOW_CELLS` instead, at the default block
budget, and prints windows, the windows `harness._window_slices` cuts the
largest block into, and window MB, the streams of its largest window:
sources x pixels x 64 * words_for(length) / 8e6.

The budgets take turns within each repeat, so a slow phase of the host falls
on all of them alike.  Run from the repo root:

    PYTHONPATH=src python scripts/block_budget_table.py [--repeats N] [--budgets 16e6,24e6]
    PYTHONPATH=src python scripts/block_budget_table.py --windows 4e6,8e6,16e6
"""

import argparse
import time
import tracemalloc

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
BUDGETS = (16_000_000, 24_000_000, 32_000_000, 40_000_000)


def _cells(text: str) -> list[int]:
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


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--budgets", type=_cells, default=list(BUDGETS),
                    help="comma-separated cells per block")
    ap.add_argument("--windows", type=_cells,
                    help="comma-separated stream cells per window, at the default block budget")
    args = ap.parse_args()

    name, budgets = ("_WINDOW_CELLS", args.windows) if args.windows else ("_BLOCK_CELLS",
                                                                          args.budgets)
    unit = "window" if args.windows else "block"
    saved = getattr(harness, name)
    print(f"numpy {np.__version__}, value cells {harness._VALUE_CELLS} a pixel and source, "
          f"{unit} budgets, wall best of {args.repeats}")
    print(f"{'workload':<13} {'L':>5} {'app':<7} {'sources':>7} {'budget M':>8} {unit + 's':>7}"
          f" {unit + ' MB':>9} {'peak MB':>7} {'wall ms':>8}")
    try:
        for workload, dims, length in SHAPES:
            for app in AppKind:
                cfgs = [ExperimentConfig(app=app, design=d, length=length, dims=dims)
                        for d in SystemDesign]
                harness.resolve_inputs(cfgs[0])
                sources = len(stream_plan(app, cfgs[0].params).groups)
                stream_cells = sources * 64 * words_for(length)
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
                    cuts = harness._block_slices(dims[0] * dims[1], length, sources, 1)
                    pixel_cells = stream_cells + sources * harness._VALUE_CELLS
                    if args.windows:
                        block = max(hi - lo for lo, hi in cuts)
                        cuts = harness._window_slices(block, length, sources)
                        pixel_cells = stream_cells
                    largest = max(hi - lo for lo, hi in cuts)
                    print(f"{workload:<13} {length:>5} {app.value:<7} {sources:>7}"
                          f" {budget / 1e6:>8.3g} {len(cuts):>7}"
                          f" {largest * pixel_cells / 8e6:>9.2f} {peaks[budget] / 1e6:>7.2f}"
                          f" {walls[budget] * 1e3:>8.1f}")
    finally:
        setattr(harness, name, saved)


if __name__ == "__main__":
    main()
