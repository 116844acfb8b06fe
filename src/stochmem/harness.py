"""End-to-end experiment runner.

A run's input is a list of frames, oldest first: the synthetic frames of its
circuits.WIRING row's input kind (synth.gen_test_inputs), or PGM files;
resolve_inputs gives them.  operand_columns gathers the (slot, pixel) operand
values of a range of pixels from them, one row per operand slot of that
WIRING row.  For each pixel the harness stores the operand values through the
design's memory path, regenerates stochastic streams from the values read
back, and evaluates the row's packed circuit (its logic):

* conv-lfsr: 10-bit ADC, ideal SRAM, LFSR+comparator stream generation;
* conv-mtj:  10-bit ADC, ideal SRAM, 8-bit DAC, Bernoulli sampling;
* stochmem:  analog memory with read/write discrepancy, Bernoulli sampling.

A block runs the stages of its design in turn: memory, over chunks of
operand slots of at most _TILE_CELLS // 4 cells (the SRAM reads back the ADC
codes it stores, so only stochmem calls the memory model); converters, once per
chunk and per constant; sources, the stream plan's slots then its constants
(the Roberts mux select, the gamma coefficients), which skip the memory;
generator; logic.  It also gives its golden output, the array that the row's
golden form (golden_eval) gives over its operand columns; the run joins the
blocks' outputs and goldens into two images and scores them once.  The run's
energy charges each operand slot as one stored operand (costs.energy_report's
default operand count), as stochmem cost does.  A report carries its config;
report_csv_row, its one text form, is what run prints and sweep writes.

Streams that a circuit requires to be correlated share one generator
identity (global seed, pixel, stream group); everything else gets its own
group (circuits.stream_plan), so results are bit-identical for any worker
partition.

A run is cut once, into blocks of contiguous row-major pixels (a block may
start and end mid-row) of at most _BLOCK_PAIRS (source, pixel) pairs over all
the sources of its stream plan.  A block holds a few 64-bit values a pair for
as long as it runs and makes its streams one window at a time, so the block
budget counts its values and the window budget alone bounds its streams: for
any image shape and any length from 1 to 2^24 a block holds at most the
values of _BLOCK_PAIRS pairs and one window, and its cut does not depend on
the length.  The blocks are the tasks _map hands to the workers (_map is the
one place that starts worker processes, for every run grid: a run's blocks, a
sweep, a noise-fit grid; it imports the process pool only then, so a
one-worker run loads no multiprocessing).  A task is the run's config and its
block's pixel range, and holds no array: the block takes the run's frames
(_run_frames) and gathers its own operand columns.  The worker count is jobs
capped at the CPU count (_workers); with several workers the block count is a
multiple of it, so a small image still spreads over every worker.  A block
makes its values once: block_values, the one value stage (the tests' ASC
oracle reads it too), gives its stream levels, golden and pixel prefix
states, and frees the operand columns they are made of; the block then
makes the generator inputs of them (each group's generator positions, and a
threshold, and on the ASC designs the rows at p >= 1, per distinct level
array).  It then makes and uses its streams one window at a time
(_window_slices), contiguous pixels of at most _WINDOW_CELLS stream cells
over all of its sources, in one stream array it reuses for every window: it
generates the window's streams, clears their bits past the length, and runs
the logic on them.  Windows along the word axis would need circuits whose
counts add up over pieces of a stream, so a single pixel over the budget is
a window of its own.  Within a window every
stream is generated packed, as (pixels, words_for(length)) uint64 rows in
the bitstream layout, and stays packed through the circuit; as the tails are
cleared before the logic, popcounts and XOR distances need no masking and
the generator need not keep the tails zero.  One tile loop is every design's stochastic number
generator: per generator group and tile of at most _TILE_CELLS cells it
makes the group's per-cycle values, which every source of the group
compares against its own threshold.  The values are SplitMix64 draws on the
ASC designs, made in buffers reused within a window, and on conv-lfsr the
LFSR's ring values from each pixel's start, rows of a window view over one
period of the ring and a tile row after it.  The draw add and the compare
each broadcast a per-pixel column across a tile row; from
_UNBUFFERED_MIN_ROW values per row the tile loop sets numpy's ufunc buffer
to the row length (inside np.errstate, which restores it on exit), so numpy
iterates those rows in place rather than through its buffers.  Shorter rows
keep numpy's default, which is faster for them.  Neither tile nor block nor
window size nor buffer size nor worker count changes any output bit.

run_experiment resolves the frames once and holds them for its blocks; a
worker process that did not inherit them (a spawn or forkserver worker)
resolves them once itself.  So on any worker count a run holds its frames,
one block's values and one window of its streams per worker (within the
block and window budgets), the tile buffers and two images, the outputs and
goldens of the blocks run so far, for any image size.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

# popcount_rows is unused here, but bench/spans.py patches it (ROADMAP item 14)
from .bitstream import (check_length, integer, pack_bool_matrix, popcount_rows, tail_mask,
                        words_for)
from .circuits import (READ_NOISE_BASE, WIRING, WRITE_NOISE_BASE, AppKind, AppParams, StreamPlan,
                       golden_eval, stream_plan)
from .converters import ADC_BITS, adc_quantize, dac_dequantize, requantize
from .costs import CostModel, CostReport, SystemDesign, area_report, energy_report, share_breakdown
from .images import ImageGray, error_metric, load_pgm
from .lfsr import LfsrCycle, LfsrSpec
from .memory import NoiseModel, mem_read_block, mem_write_block
# derive_state_grid is unused here, but bench/spans.py patches it (ROADMAP item 14)
from .rng import (GOLDEN, bernoulli_threshold_u64, derive_state_grid, pixel_states, stream_states,
                  uniform_block_from_states)
from .synth import INPUT_DIMS, INPUT_SEED, gen_test_inputs

# Read/write discrepancy fitted to the published accuracy gap at length 1024
# by stochmem.calibrate; `stochmem calibrate` regenerates it.
DEFAULT_NOISE_SIGMA = 0.00625

PAPER_LENGTHS = (128, 256, 512, 1024)
DEFAULT_SEEDS = 20

# (source, pixel) pairs per pixel block, over all of its sources.  A block holds
# a few 64-bit values a pair: its operand value (its slot's operand column),
# its level (an ADC code or a probability), its threshold or conv-mtj's
# requantized level and its group's generator positions (the memory path's
# noise works in chunks of _TILE_CELLS // 4 cells); four values bound them
# (tracemalloc of one kde block of 2,857 pixels at L=1, 33 sources: 4.5 values
# a pair on conv-mtj, the stream word and tile buffers included).  Its streams
# are bounded by _WINDOW_CELLS, not here.  At L <= 64 this cuts as a budget of 32M cells at
# 64 stream and 4 * 64 value cells a pair did.  scripts/block_budget_table.py
# (numpy 2.4.6, 2-vCPU x86-64 host), best of 9 over each workload's runs (15,
# or 60 over length-sweep's four lengths), at 50k, 75k, 100k and 125k pairs:
# short-stream 446, 435, 425 and 430 ms, peaking at 2.88, 3.45, 3.45 and 4.11
# MB; grid-L1024, length-sweep and wide-long are one block a run at each,
# 196-200, 240-244 and 678-683 ms, peaking at 2.31, 2.19 and 2.30 MB.  With
# --faults, the median of 7 warm repetitions in fresh processes faulted 1,
# 8,736, 2,095 and 3,886 pages on short-stream (glibc trims the heap that
# blocks free once it outgrows twice its largest freed mapping), and 2,704,
# 2,605 and 3,696 on the others at each
_BLOCK_PAIRS = 100_000
# uniform draws per stream tile, so a tile, its mixer temporary and its compare
# output stay in cache; long streams are tiled along the length too.  Tiles run
# with numpy's ufunc buffer set to one tile row (rounded down to a multiple of
# 16, as numpy requires): a broadcast draw add or threshold compare over rows
# shorter than the default 8192-element buffer goes through the buffered
# iterator at about twice the cost of iterating the row in place
_TILE_CELLS = 65_536
# fewest values per tile row that run with the row-sized buffer; shorter rows
# are faster with numpy's default.  scripts/tile_buffer_table.py (numpy 2.4.6,
# 2-vCPU x86-64 host), ns/cell default -> row-sized: compare 0.91 -> 2.30 at
# 32 draws, 0.75 -> 0.77 at 128, 0.76 -> 0.56 at 256; draw add 1.29 -> 1.89 at
# 32, 1.02 -> 0.62 at 128, 0.94 -> 0.45 at 256.  conv-lfsr's uint16 ring
# compare pays the rule at 256 and 512 values, 0.19 -> 0.33 and 0.18 -> 0.22,
# and gains from 1024, 0.18 -> 0.16; below 256 it keeps the default (0.30 ->
# 1.90 at 32)
_UNBUFFERED_MIN_ROW = 256
# stream cells per window of a block, over all of its sources: a pixel costs
# 64 * words_for(length) cells a source, so a window holds at most 1 MB of
# streams.  A block holds its values whole, but makes and uses its streams
# one window at a time (_window_slices).  scripts/block_budget_table.py
# --windows (numpy 2.4.6, 2-vCPU x86-64 host), best of 5 over each workload's
# 15 runs, at 4M, 8M, 16M and 32M cells: wide-long 705, 654, 638 and 625 ms,
# peaking at 1.79, 2.28, 3.58 and 6.05 MB; grid-L1024 195, 187, 187 and 186
# ms, peaking at 1.73, 2.27, 3.23 and 3.50 MB; short-stream 422, 406, 407 and
# 406 ms (one window a block from 8M), peaking at 3.53 MB
_WINDOW_CELLS = 8_000_000


@dataclass(frozen=True)
class ExperimentConfig:
    app: AppKind = AppKind.ROBERT
    design: SystemDesign = SystemDesign.CONV_LFSR
    length: int = 1024
    global_seed: int = 1
    noise: NoiseModel = NoiseModel(DEFAULT_NOISE_SIGMA, DEFAULT_NOISE_SIGMA)
    params: AppParams = AppParams()
    costs: CostModel = CostModel()
    # size and seed of the synthetic inputs, None for synth.INPUT_DIMS and
    # synth.INPUT_SEED; neither may be set with input_path
    dims: tuple[int, int] | None = None
    input_seed: int | None = None
    input_path: str | None = None
    jobs: int = 1

    def __post_init__(self):
        # integral values are held as ints, so numpy integers run as ints do
        for name in ("length", "global_seed", "input_seed", "jobs"):
            if getattr(self, name) is not None:
                object.__setattr__(self, name, integer(name, getattr(self, name)))
        # the generators take a seed as its 64 bits, so another would alias one of them
        for name in ("global_seed", "input_seed"):
            seed = getattr(self, name)
            if seed is not None and not 0 <= seed < 1 << 64:
                raise ValueError(f"{name} must lie in [0, 2^64), got {seed}")
        if self.dims is not None:
            object.__setattr__(self, "dims", tuple(integer("dims", v) for v in self.dims))
        check_length(self.length)
        _check_jobs(self.jobs)
        if self.dims is not None and (len(self.dims) != 2 or min(self.dims) < 1):
            raise ValueError(f"dims must be two positive integers (width, height), "
                             f"got {self.dims}")
        for key, verb in (("dims", "sizes"), ("input_seed", "seeds")):
            if getattr(self, key) is not None and self.input_path is not None:
                raise ValueError(f"{key} {verb} only the synthetic inputs; it cannot be set "
                                 f"with input")


def _check_jobs(jobs: int) -> None:
    if integer("jobs", jobs) < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


@dataclass
class ExperimentReport:
    cfg: ExperimentConfig
    inaccuracy_percent: float
    output: ImageGray
    area: CostReport
    energy: CostReport           # one stored operand per operand slot
    energy_default: CostReport   # the profile's n_streams stored operands


# ---------------------------------------------------------------------------
# inputs


# gen_test_inputs(kind, dims, seed), made once per argument triple
_synthetic = lru_cache(maxsize=16)(gen_test_inputs)


def resolve_inputs(cfg: ExperimentConfig) -> list[ImageGray]:
    """The run's frames, oldest first: the last is the current frame and the
    ones before it are the previous frame (frame) or the history (kde).

    They are the last WIRING[cfg.app].frames of cfg.input_path, a PGM image as
    one frame or a directory of PGM frames in name order, which must all be the
    current frame's size; else of the cached synthetic set.
    """
    wiring = WIRING[cfg.app]
    need = wiring.frames
    if cfg.input_path is None:
        frames = _synthetic(wiring.synthetic, cfg.dims or INPUT_DIMS,
                            INPUT_SEED if cfg.input_seed is None else cfg.input_seed)
        return frames[-need:]
    path = Path(cfg.input_path)
    paths = sorted(path.glob("*.pgm")) if path.is_dir() else [path]
    if len(paths) < need:
        raise ValueError(f"{cfg.input_path}: {cfg.app.value} needs at least {need} frames, "
                         f"found {len(paths)}")
    frames = [load_pgm(p) for p in paths[-need:]]
    for p, frame in zip(paths[-need:], frames):
        if frame.data.shape != frames[-1].data.shape:
            raise ValueError(f"{cfg.input_path}: frame {p.name} is {frame.width}x"
                             f"{frame.height}, the current frame {paths[-1].name} is "
                             f"{frames[-1].width}x{frames[-1].height}")
    return frames


def operand_columns(app: AppKind, frames: list[ImageGray], lo: int, hi: int) -> np.ndarray:
    """(slot, pixel) operand values of app, the values its streams encode, at
    the flat row-major pixels lo..hi of frames (resolve_inputs).  A window
    app's slot k is the current frame at window offset k, clamped to the image
    edge; else slot 0 is the current frame and slot k the k-th of the frames
    before it, oldest first."""
    wiring = WIRING[app]
    columns = np.empty((wiring.slots, hi - lo))
    if not wiring.window:
        for column, frame in zip(columns, frames[-1:] + frames[-wiring.frames:-1]):
            column[:] = frame.data.reshape(-1)[lo:hi]
        return columns
    current = frames[-1].data
    height, width = current.shape
    ys, xs = np.divmod(np.arange(lo, hi), width)
    rows = {dy: np.clip(ys + dy, 0, height - 1) * width for dy in {dy for dy, _ in wiring.window}}
    cols = {dx: np.clip(xs + dx, 0, width - 1) for dx in {dx for _, dx in wiring.window}}
    for column, (dy, dx) in zip(columns, wiring.window):
        np.take(current, rows[dy] + cols[dx], out=column)
    return columns


# ---------------------------------------------------------------------------
# pixel-block pipeline


def _block_slices(n_pixels: int, sources: int, jobs: int):
    """Contiguous (lo, hi) pixel ranges covering 0..n_pixels whose sizes differ
    by at most one; a block holds at most _BLOCK_PAIRS // sources pixels.  The
    block count is a multiple of jobs unless it is n_pixels."""
    per_block = _BLOCK_PAIRS // sources
    n_blocks = min(n_pixels, jobs * -(-n_pixels // (per_block * jobs)))
    bounds = [k * n_pixels // n_blocks for k in range(n_blocks + 1)]
    return list(zip(bounds[:-1], bounds[1:]))


def _convert(design: SystemDesign, values):
    """Generator input of stored values: the ADC code (conv-lfsr), the DAC's
    requantized level (conv-mtj) or the analog value itself (stochmem)."""
    if design is SystemDesign.STOCHMEM:
        return values
    code = adc_quantize(values)
    return dac_dequantize(requantize(code)) if design is SystemDesign.CONV_MTJ else code


def _stream_levels(cfg: ExperimentConfig, plan: StreamPlan, operands: np.ndarray,
                   pixels: np.ndarray) -> list[np.ndarray]:
    """Per-source generator input, a comparator code (conv-lfsr) or a
    probability (ASC designs), from the (slot, pixel) operand rows at the
    pixel_states pixels.  Chunks of slots of at most _TILE_CELLS // 4 cells
    pass the memory (only stochmem models it) and then the converters (_convert)
    once each, as constants do; a source references its slot's row.  A quarter
    tile keeps the memory path's noise arrays from raising a stochmem block's
    peak above a conv-mtj block's."""
    n = pixels.size
    rows = max(1, _TILE_CELLS // 4 // n)
    levels = []
    for lo in range(0, len(operands), rows):
        values = operands[lo:lo + rows]
        if cfg.design is SystemDesign.STOCHMEM:
            ids = np.arange(lo, lo + len(values))[:, None]
            stored = mem_write_block(cfg.noise, values,
                                     stream_states(pixels, WRITE_NOISE_BASE + ids))
            values = mem_read_block(cfg.noise, stored, stream_states(pixels, READ_NOISE_BASE + ids))
        levels.extend(_convert(cfg.design, values))
    # constants skip the memory but not the converters
    return ([levels[slot] for slot in plan.slots]
            + [np.full(n, _convert(cfg.design, c)) for c in plan.consts])


def block_values(cfg: ExperimentConfig, frames: list[ImageGray], lo: int, hi: int) -> tuple:
    """(levels, golden, pixels) at the flat row-major pixels lo..hi of cfg's
    run on frames (resolve_inputs): each stream plan source's level
    (_stream_levels), the golden output (golden_eval) and the pixels'
    pixel_states.  The operand columns they are made of are freed on return."""
    operands = operand_columns(cfg.app, frames, lo, hi)
    golden = golden_eval(cfg.app, operands, cfg.params)
    ys, xs = np.divmod(np.arange(lo, hi, dtype=np.uint64), np.uint64(frames[-1].width))
    pixels = pixel_states(cfg.global_seed, xs, ys)
    return _stream_levels(cfg, stream_plan(cfg.app, cfg.params), operands, pixels), golden, pixels


def _tile_shape(length: int) -> tuple[int, int]:
    """(rows, cols) of the ASC draw tiles of streams of length: whole streams
    of several pixels, or, when the length exceeds _TILE_CELLS, one pixel's
    columns in pieces of a multiple of 64."""
    cols = length if length <= _TILE_CELLS else max(64, _TILE_CELLS // 64 * 64)
    return max(1, _TILE_CELLS // cols), cols


def _window_slices(n_pixels: int, length: int, sources: int) -> list[tuple[int, int]]:
    """Contiguous (lo, hi) windows covering a block's pixels 0..n_pixels, in
    which it makes and uses its streams: at most _WINDOW_CELLS stream cells,
    64 * words_for(length) a pixel and source.  A block that fits is one
    window; else a window is a whole number of the ASC tiles' pixel rows when
    the budget holds one, so that window edges add no partial tiles.  Only a
    single pixel whose streams alone exceed the budget forms a larger
    window."""
    size = max(1, _WINDOW_CELLS // (sources * 64 * words_for(length)))
    rows = _tile_shape(length)[0]
    if size < n_pixels and size >= rows:
        size -= size % rows
    return [(lo, min(lo + size, n_pixels)) for lo in range(0, n_pixels, size)]


def _generator_inputs(cfg: ExperimentConfig, plan: StreamPlan, levels: list[np.ndarray],
                      pixels: np.ndarray) -> tuple:
    """A block's inputs to _window_streams, made once: its groups, each its
    generator positions at the block's pixels and its member sources; each
    source's (pixel, 1) threshold and, on the ASC designs, its pixels at
    p >= 1; and conv-lfsr's ring windows (None on the ASC designs).

    A group's positions are its SplitMix64 states, or on conv-lfsr the ring
    positions where each pixel's LFSR starts, at state derive_state(global
    seed, x, y, group) mod period + 1.  A source's bit is its group's value
    below its threshold: bernoulli_threshold_u64(p) against the draws, with
    the pixels at p >= 1, which have no strict-compare threshold, set after;
    or the ADC code + 1 against the ring values (bit = value <= code), which
    the top code already sets on every cycle.  Sources that read one level
    array (gamma's replicas of slot 0) share its threshold and mask.  The ring
    windows have one row per ring position r: the cols values of the LFSR
    sequence from r, read from one period of it and the cols - 1 values
    after."""
    groups = {g: stream_states(pixels, g) for g in dict.fromkeys(plan.groups)}
    ring = None
    if cfg.design is SystemDesign.CONV_LFSR:
        # the comparator is as wide as the ADC code
        cycle = LfsrCycle.for_spec(LfsrSpec(width=ADC_BITS))
        period = cycle.spec.period
        cols = _tile_shape(cfg.length)[1]
        ring = sliding_window_view(
            cycle.sequence_block(np.zeros(1, dtype=np.int64), period + cols - 1)[0], cols)
        groups = {g: cycle.position[(s % np.uint64(period)).astype(np.int64) + 1]
                  .astype(np.int64) for g, s in groups.items()}
    made = {}
    for p in levels:
        if id(p) not in made:
            made[id(p)] = (((p + 1).astype(np.uint16)[:, None], None) if ring is not None
                           else (bernoulli_threshold_u64(p)[:, None], p >= 1.0))
    thresholds, full = zip(*(made[id(p)] for p in levels))
    members = [(positions, [s for s, h in enumerate(plan.groups) if h == g])
               for g, positions in groups.items()]
    return members, thresholds, full, ring


def _window_streams(cfg: ExperimentConfig, inputs: tuple, lo: int, hi: int,
                    streams: np.ndarray) -> None:
    """Streams of every design at the block's pixels lo..hi, written into the
    (source, hi - lo, words) streams: bit j of source s at pixel i is value j
    of its group's generator at pixel i below the source's threshold (inputs,
    from _generator_inputs).

    A group's values are made once per tile of _tile_shape and compared by
    each of its sources.  On the ASC designs they are SplitMix64 draws; a tile
    of one pixel's columns c0..c0+cols is drawn from states + c0 * GOLDEN
    (draw j of state s is mix64(s + (j + 1) * GOLDEN)).  On conv-lfsr they
    are the uint16 rows of the ring windows at (start + c0) mod period.  The
    draw, mixer and compare buffers are allocated once per window and reused
    by every tile and group; the window's logic runs without them.  The
    compare buffer's rows are padded to whole words, so pack_bool_matrix packs
    a tile in one flat pass; the pad bits land past the length, which the
    block clears.  Rows of at least _UNBUFFERED_MIN_ROW values run with
    numpy's ufunc buffer set to the row length; the outputs do not depend on
    it.
    """
    members, thresholds, full, ring = inputs
    length = cfg.length
    rows, cols = _tile_shape(length)
    rows = min(rows, hi - lo)
    if ring is None:
        draws = np.empty((rows, cols), dtype=np.uint64)
        tmp = np.empty_like(draws)
    bits = np.zeros((rows, 64 * words_for(cols)), dtype=bool)
    # errstate scopes the buffer size, so it is restored however the loop ends
    with np.errstate():
        if cols >= _UNBUFFERED_MIN_ROW:
            np.setbufsize(cols // 16 * 16)
        for positions, sources in members:
            for r0 in range(0, hi - lo, rows):
                m = min(rows, hi - lo - r0)
                at = positions[lo + r0:lo + r0 + m]
                for c0 in range(0, length, cols):
                    w = min(cols, length - c0)
                    if ring is None:
                        tile = uniform_block_from_states(at + np.uint64(c0 * GOLDEN % (1 << 64)),
                                                         w, into=draws[:m, :w], tmp=tmp[:m, :w])
                    else:
                        tile = ring[(at + c0) % len(ring), :w]
                    words = slice(c0 // 64, c0 // 64 + words_for(w))
                    padded = bits[:m, :64 * words_for(w)]
                    for s in sources:
                        np.less(tile, thresholds[s][lo + r0:lo + r0 + m], out=padded[:, :w])
                        streams[s, r0:r0 + m, words] = pack_bool_matrix(padded)
    for stream, ones in zip(streams, full):
        if ones is not None:
            stream[ones[lo:hi]] = ~np.uint64(0)


# the config fields that choose a run's frames, and the frames of the last
# run this process resolved
_held_frames: tuple = (None, None)


def _run_frames(cfg: ExperimentConfig, fresh: bool = False) -> list[ImageGray]:
    """resolve_inputs(cfg), held for the blocks of cfg's run.  run_experiment
    asks for them fresh, so a file changed since the last run is read again;
    its blocks get the held frames, which a forked worker inherits, and a
    worker that has none (a spawn or forkserver worker) resolves them once."""
    global _held_frames
    key = (cfg.app, cfg.dims, cfg.input_seed, cfg.input_path)
    if fresh or _held_frames[0] != key:
        _held_frames = (key, resolve_inputs(cfg))
    return _held_frames[1]


def _evaluate_block(task: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Output and golden of one pixel block.  task is (cfg, lo, hi): the flat
    row-major pixels lo..hi of cfg's run, whose block_values the block takes
    from the run's frames.  The block turns its levels into its generator
    inputs once, then makes and uses its streams one window (_window_slices)
    at a time, in one reused stream array."""
    cfg, lo, hi = task
    levels, golden, pixels = block_values(cfg, _run_frames(cfg), lo, hi)
    plan = stream_plan(cfg.app, cfg.params)
    n, sources, words = hi - lo, len(plan.groups), words_for(cfg.length)
    windows = _window_slices(n, cfg.length, sources)
    window = windows[0][1]   # the first window is the largest
    inputs = _generator_inputs(cfg, plan, levels, pixels)
    del levels, pixels
    cells = np.empty(sources * window * words, dtype=np.uint64)
    output = np.empty(n)
    for a, b in windows:
        streams = cells[:sources * (b - a) * words].reshape(sources, b - a, words)
        _window_streams(cfg, inputs, a, b, streams)
        if b == n:
            # the last window's logic needs no thresholds or generator positions
            inputs = None
        streams[:, :, -1] &= tail_mask(cfg.length)
        output[a:b] = WIRING[cfg.app].logic(streams, cfg.params, cfg.length)
    return output, golden


def _workers(jobs: int) -> int:
    """Worker processes for ``jobs``: at most one per CPU."""
    return 1 if jobs == 1 else min(jobs, os.cpu_count() or 1)


def _map(fn, items: list, jobs: int) -> list:
    """[fn(item) for item in items], over up to _workers(jobs) processes."""
    workers = min(_workers(jobs), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    # imported here, so a one-worker run loads neither it nor multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute one (app, design, length, seed) run and score it."""
    height, width = _run_frames(cfg, fresh=True)[-1].data.shape
    sources = len(stream_plan(cfg.app, cfg.params).groups)
    blocks = _block_slices(height * width, sources, _workers(cfg.jobs))
    tasks = [(cfg, lo, hi) for lo, hi in blocks]
    # the blocks' outputs, then their goldens, as images; the block results
    # are freed once both are made
    output, golden = (ImageGray(np.concatenate(parts).reshape(height, width))
                      for parts in zip(*_map(_evaluate_block, tasks, cfg.jobs)))
    inaccuracy = error_metric(output, golden)

    return ExperimentReport(
        cfg=cfg,
        inaccuracy_percent=inaccuracy,
        output=output,
        area=area_report(cfg.design, cfg.app, cfg.costs),
        energy=energy_report(cfg.design, cfg.app, cfg.length, model=cfg.costs),
        energy_default=energy_report(cfg.design, cfg.app, cfg.length,
                                     cfg.costs.profiles[cfg.app].n_streams, cfg.costs),
    )


# ---------------------------------------------------------------------------
# sweeps and CSV emission

CSV_COLUMNS = (
    "app", "design", "length", "seed", "inaccuracy_percent",
    "energy_pJ_per_pixel", "energy_share_input", "energy_share_conversion",
    "energy_share_logic", "area_um2", "area_share_input",
    "area_share_conversion", "area_share_logic",
)


def report_csv_row(r: ExperimentReport) -> str:
    e_shares = share_breakdown(r.energy)
    a_shares = share_breakdown(r.area)
    fields = (
        r.cfg.app.value, r.cfg.design.value, str(r.cfg.length), str(r.cfg.global_seed),
        f"{r.inaccuracy_percent:.6f}",
        f"{r.energy.total:.4f}",
        f"{e_shares['input_layer']:.6f}", f"{e_shares['conversion']:.6f}",
        f"{e_shares['logic']:.6f}",
        f"{r.area.total:.2f}",
        f"{a_shares['input_layer']:.6f}", f"{a_shares['conversion']:.6f}",
        f"{a_shares['logic']:.6f}",
    )
    return ",".join(fields)


def _sweep_one(cfg: ExperimentConfig) -> tuple[tuple, str, float]:
    r = run_experiment(cfg)
    key = (cfg.app.value, cfg.design.value, cfg.length, cfg.global_seed)
    return key, report_csv_row(r), r.inaccuracy_percent


def distinct(name: str, values: list) -> list:
    """values; a ValueError names the list ``name`` if it is empty or names a
    value twice, which would make, and report, the same runs twice."""
    if not values:
        raise ValueError(f"{name} is empty")
    for k, value in enumerate(values):
        if value in values[:k]:
            raise ValueError(f"{name} lists {getattr(value, 'value', value)} twice")
    return values


def _run_grid(template: ExperimentConfig, apps, designs, lengths,
              n_seeds: int) -> list[tuple[tuple, str, float]]:
    """_sweep_one of every (app, design, length, seed) in that nesting order, on
    template.jobs workers; seeds are template.global_seed + run index."""
    for name, chosen in (("apps", apps), ("designs", designs), ("lengths", lengths)):
        distinct(name, chosen)
    if n_seeds < 1:
        raise ValueError(f"n_seeds must be at least 1, got {n_seeds}")
    cfgs = [replace(template, app=a, design=d, length=length,
                    global_seed=template.global_seed + k, jobs=1)
            for a in apps for d in designs for length in lengths
            for k in range(n_seeds)]
    return _map(_sweep_one, cfgs, template.jobs)


def sweep(template: ExperimentConfig,
          apps: list[AppKind] | None = None,
          designs: list[SystemDesign] | None = None,
          lengths: tuple[int, ...] = PAPER_LENGTHS,
          n_seeds: int = DEFAULT_SEEDS,
          out_csv=None,
          jobs: int | None = None) -> list[str]:
    """Run the cross product on template.jobs workers (a jobs given must equal
    it) and return CSV lines (header first), sorted by (app, design, length,
    seed).  Seeds are global_seed + run index; apps and designs default to all."""
    if out_csv is not None and not Path(out_csv).parent.is_dir():
        raise ValueError(f"{out_csv}: directory {Path(out_csv).parent} does not exist")
    if jobs not in (None, template.jobs):
        _check_jobs(jobs)
        raise ValueError(f"sweep runs on jobs={jobs} workers, but template.jobs is "
                         f"{template.jobs}")
    apps = list(AppKind if apps is None else apps)
    designs = list(SystemDesign if designs is None else designs)
    results = sorted(_run_grid(template, apps, designs, lengths, n_seeds),
                     key=lambda kr: kr[0])
    lines = [",".join(CSV_COLUMNS)] + [row for _, row, _ in results]
    if out_csv is not None:
        Path(out_csv).write_text("\n".join(lines) + "\n")
    return lines
