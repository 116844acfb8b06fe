"""End-to-end experiment runner.

A run's input is a list of frames, oldest first: the synthetic frames of its
circuits.WIRING row's input kind (synth.gen_test_inputs), or PGM files.
resolve_inputs turns them into its operand planes (slot, y, x), one plane per
operand slot of that row.  For each pixel the harness stores the operand
values through the design's memory path, regenerates stochastic streams from
the values read back, and evaluates the row's packed circuit (its logic):

* conv-lfsr: 10-bit ADC, ideal SRAM, LFSR+comparator stream generation;
* conv-mtj:  10-bit ADC, ideal SRAM, 8-bit DAC, Bernoulli sampling;
* stochmem:  analog memory with read/write discrepancy, Bernoulli sampling.

A block runs the stages of its design in turn: memory, over chunks of
operand slots of at most _TILE_CELLS cells (the SRAM reads back the ADC codes
it stores, so only stochmem calls the memory model); converters, once per
chunk and per constant; sources, the stream plan's slots then its constants
(the Roberts mux select, the gamma coefficients), which skip the memory;
generator; logic.  The golden output is the row's golden form (golden_eval).
The run's energy charges each operand plane as one stored operand
(costs.energy_report with n_operands the plane count).  A report carries its
config; report_csv_row, its one text form, is what run prints and sweep writes.

Streams that a circuit requires to be correlated share one generator
identity (global seed, pixel, stream group); everything else gets its own
group (circuits.stream_plan), so results are bit-identical for any worker
partition.

A run is cut once, into blocks of contiguous row-major pixels (a block may
start and end mid-row) of at most _BLOCK_CELLS cells.  A pixel costs, per
source, the 64 * words_for(length) cells of its packed stream words plus
_VALUE_CELLS for the fixed 64-bit values it holds beside them, so memory per
block is bounded for any image shape and any length from 1 to 2^24: short
streams give more pixels per block, but never more than the values they
hold allow.  Only a single pixel whose stream alone exceeds the budget forms
a larger block.  The blocks are the tasks _map hands to the workers (_map is
the one place that starts worker processes, for every run grid: a run's
blocks, a sweep, a noise-fit grid).  A task is the run's config and its block's
pixels: their range and operand columns.  The worker count is jobs capped at
the CPU count (_workers); with several workers the block count is a multiple
of it, so a small image still spreads over every worker.  Within a block every
stream is generated packed, as (pixels, words_for(length)) uint64 rows in the
bitstream layout, and stays packed through the circuit; bits past the length
are always zero, so popcounts and XOR distances need no masking.  The ASC
designs compare SplitMix64 draws, made in tiles of at most _TILE_CELLS cells
in reused buffers and shared between the sources of one group, against each
source's threshold.  The draw add and the compare each broadcast a per-pixel
column across a tile row; from _UNBUFFERED_MIN_ROW draws per row the tile loop
sets numpy's ufunc buffer to the row length (inside np.errstate, which restores
it on exit), so numpy iterates those rows in place rather than through its
buffers.  Shorter rows keep numpy's default, which is faster for them.
conv-lfsr reads each 64-bit word as a window into a table of packed
comparator outputs over one LFSR period.  Neither tile nor block size nor
buffer size nor worker count changes any output bit.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

# popcount_rows is unused here, but bench/spans.py patches it (ROADMAP item 14)
from .bitstream import check_length, pack_bool_matrix, popcount_rows, tail_mask, words_for
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

# cells per pixel block, counted per source: a pixel costs one cell per bit of
# its packed stream words, 64 * words_for(length), plus _VALUE_CELLS for the
# 64-bit values it holds beside them.  Those are its level (an ADC code or a
# probability), its threshold or conv-mtj's requantized level and its group's
# generator states (the memory path's noise works in chunks of _TILE_CELLS
# cells); four values bound them (tracemalloc of one kde block of 6,250 pixels
# at L=1, 33 sources: 3.5 values a source and pixel, the stream word included).
# Only a one-pixel block may exceed the budget, when its stream alone does
_BLOCK_CELLS = 2_000_000
_VALUE_CELLS = 4 * 64
# uniform draws per stream tile, so a tile, its mixer temporary and its compare
# output stay in cache; long streams are tiled along the length too.  Tiles run
# with numpy's ufunc buffer set to one tile row (rounded down to a multiple of
# 16, as numpy requires): a broadcast draw add or threshold compare over rows
# shorter than the default 8192-element buffer goes through the buffered
# iterator at about twice the cost of iterating the row in place
_TILE_CELLS = 65_536
# fewest draws per tile row that run with the row-sized buffer; shorter rows
# are faster with numpy's default.  scripts/tile_buffer_table.py (numpy 2.4.6,
# 2-vCPU x86-64 host), ns/cell default -> row-sized: compare 0.95 -> 2.39 at
# 32 draws, 0.76 -> 0.89 at 128, 0.72 -> 0.45 at 256; draw add 1.20 -> 2.22 at
# 32, 0.96 -> 0.68 at 128, 0.96 -> 0.38 at 256
_UNBUFFERED_MIN_ROW = 256


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
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")


@dataclass
class ExperimentReport:
    cfg: ExperimentConfig
    inaccuracy_percent: float
    output: ImageGray
    area: CostReport
    energy: CostReport           # one stored operand per operand plane
    energy_default: CostReport   # the profile's n_streams stored operands


# ---------------------------------------------------------------------------
# inputs


# gen_test_inputs(kind, dims, seed), made once per argument triple
_synthetic = lru_cache(maxsize=16)(gen_test_inputs)


def resolve_inputs(cfg: ExperimentConfig) -> np.ndarray:
    """Operand planes (slot, y, x) of cfg's app, the values its streams encode.

    The frames are cfg.input_path, a PGM image as one frame or a directory of
    PGM frames in name order, else the synthetic set; the last frame is the
    current one and the ones before it are the previous frame (frame) or the
    history (kde).  Neighbourhoods are clamped to the image edge.
    """
    wiring = WIRING[cfg.app]
    need = wiring.frames
    if cfg.input_path is None:
        frames = _synthetic(wiring.synthetic, cfg.dims or INPUT_DIMS,
                            INPUT_SEED if cfg.input_seed is None else cfg.input_seed)
    else:
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
    img = frames[-1].data
    if wiring.window:
        # window offsets lie in -1..1, so one edge pixel of padding clamps them all
        h, w = img.shape
        pad = np.pad(img, 1, mode="edge")
        return np.stack([pad[1 + dy:1 + dy + h, 1 + dx:1 + dx + w] for dy, dx in wiring.window])
    return np.stack([img] + [f.data for f in frames[-need:-1]])


# ---------------------------------------------------------------------------
# pixel-block pipeline


def _block_slices(n_pixels: int, length: int, jobs: int):
    """Contiguous (lo, hi) pixel ranges covering 0..n_pixels whose sizes differ
    by at most one; a block of more than one pixel costs at most _BLOCK_CELLS
    cells, at 64 * words_for(length) + _VALUE_CELLS per pixel.  The block
    count is a multiple of jobs unless it is n_pixels."""
    per_block = max(1, _BLOCK_CELLS // (64 * words_for(length) + _VALUE_CELLS))
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
    pixel_states pixels.  Chunks of slots of at most _TILE_CELLS cells pass
    the memory (only stochmem models it) and then the converters (_convert)
    once each, as constants do; a source references its slot's row."""
    n = pixels.size
    rows = max(1, _TILE_CELLS // n)
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


def _asc_streams(cfg: ExperimentConfig, plan: StreamPlan, levels: list[np.ndarray],
                 pixels: np.ndarray) -> np.ndarray:
    """Bernoulli streams of the ASC designs: bit j of source s at pixel i is
    draw j of its group's SplitMix64 sequence at pixel i compared against the
    source's threshold.

    Draws are made in tiles of at most _TILE_CELLS cells, shared by every
    source of the group: whole streams of several pixels, or, when the length
    exceeds _TILE_CELLS, one pixel's columns c0..c0+cols with cols a multiple
    of 64, drawn from states + c0 * GOLDEN (draw j of state s is
    mix64(s + (j + 1) * GOLDEN)).  The draw, mixer and compare buffers are
    allocated once and reused by every tile and group.  The compare buffer's
    rows are padded with zeros to whole words, so pack_bool_matrix packs a
    tile in one flat pass.  Rows of at least
    _UNBUFFERED_MIN_ROW draws run with numpy's ufunc buffer set to the row
    length; the outputs do not depend on it.
    """
    length = cfg.length
    n = pixels.size
    streams = np.empty((len(levels), n, words_for(length)), dtype=np.uint64)
    thresholds = [bernoulli_threshold_u64(p)[:, None] for p in levels]
    cols = length if length <= _TILE_CELLS else max(64, _TILE_CELLS // 64 * 64)
    rows = min(n, max(1, _TILE_CELLS // cols))
    draws = np.empty((rows, cols), dtype=np.uint64)
    tmp = np.empty_like(draws)
    # the pad columns start zero: the compares write only the first w of a row
    bits = np.zeros((rows, 64 * words_for(cols)), dtype=bool)
    # errstate scopes the buffer size, so it is restored however the loop ends
    with np.errstate():
        if cols >= _UNBUFFERED_MIN_ROW:
            np.setbufsize(cols // 16 * 16)
        for group in dict.fromkeys(plan.groups):
            members = [s for s, g in enumerate(plan.groups) if g == group]
            states = stream_states(pixels, group)
            for lo in range(0, n, rows):
                m = min(rows, n - lo)
                for c0 in range(0, length, cols):
                    w = min(cols, length - c0)
                    offset = np.uint64(c0 * GOLDEN % (1 << 64))
                    tile = uniform_block_from_states(states[lo:lo + m] + offset, w,
                                                     into=draws[:m, :w], tmp=tmp[:m, :w])
                    words = slice(c0 // 64, c0 // 64 + words_for(w))
                    padded = bits[:m, :64 * words_for(w)]
                    if w < cols:
                        # the last chunk of a split length: the full-width
                        # chunks before it left their bits in its pad columns
                        padded[:, w:] = False
                    for s in members:
                        np.less(tile, thresholds[s][lo:lo + m], out=padded[:, :w])
                        streams[s, lo:lo + m, words] = pack_bool_matrix(padded)
    # p >= 1 has no strict-compare threshold
    ones = np.full(words_for(length), ~np.uint64(0))
    ones[-1] = tail_mask(length)
    for stream, p in zip(streams, levels):
        stream[p >= 1.0] = ones
    return streams


def _dsc_streams(cfg: ExperimentConfig, plan: StreamPlan, levels: list[np.ndarray],
                 pixels: np.ndarray) -> np.ndarray:
    """LFSR+comparator streams of conv-lfsr: bit j of source s at pixel i is
    ring[(start_i + j) mod period] <= code_s,i, where the LFSR at pixel i
    starts at state derive_state(global seed, x_i, y_i, group) mod period + 1
    for the source's group.

    Row c of the comparator table holds bit k set iff ring[k mod period] <= c,
    for k over one period plus 128 values.  Word w of a stream is the
    unaligned 64-bit window of the row at the source's code, at bit offset
    (start + 64 w) mod period; the 128 extra values keep every window inside
    its row.
    """
    length = cfg.length
    # the comparator is as wide as the ADC code
    cycle = LfsrCycle.for_spec(LfsrSpec(width=ADC_BITS))
    period = cycle.spec.period
    ring = cycle.sequence_block(np.zeros(1, dtype=np.int64), period + 128)[0]
    k = np.arange(ring.size)
    # set bit k in row ring[k], then OR each row into the next
    table = np.zeros((period + 1, words_for(ring.size)), dtype=np.uint64)
    np.bitwise_or.at(table, (ring, k >> 6), np.uint64(1) << (k & 63).astype(np.uint64))
    np.bitwise_or.accumulate(table, axis=0, out=table)
    row_words = table.shape[1]
    table = table.ravel()
    word_starts = 64 * np.arange(words_for(length), dtype=np.int64)
    streams = np.empty((len(levels), pixels.size, words_for(length)), dtype=np.uint64)
    windows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for s, (group, level) in enumerate(zip(plan.groups, levels)):
        if group not in windows:
            states = stream_states(pixels, group)
            seeds = (states % np.uint64(period)).astype(np.int64) + 1
            start = cycle.position[seeds].astype(np.int64)
            offsets = (start[:, None] + word_starts) % period
            windows[group] = (offsets >> 6, (offsets & 63).astype(np.uint64))
        word, shift = windows[group]
        idx = level[:, None] * row_words + word
        # the split left shift is 64 - shift for shift 1..63 and drops the
        # high word at shift 0, where a single shift by 64 is undefined
        streams[s] = (table[idx] >> shift) | (table[idx + 1] << (63 - shift) << 1)
    streams[:, :, -1] &= np.uint64(tail_mask(length))
    return streams


def _evaluate_block(task: tuple) -> np.ndarray:
    """Output of one pixel block.  task is (cfg, width, lo, hi, operands): the
    flat row-major pixels lo..hi of a width-pixel-wide image and their (slot,
    pixel) operand columns."""
    cfg, width, lo, hi, operands = task
    ys, xs = np.divmod(np.arange(lo, hi, dtype=np.uint64), np.uint64(width))
    pixels = pixel_states(cfg.global_seed, xs, ys)
    plan = stream_plan(cfg.app, cfg.params)
    levels = _stream_levels(cfg, plan, operands, pixels)
    generate = _dsc_streams if cfg.design is SystemDesign.CONV_LFSR else _asc_streams
    return WIRING[cfg.app].logic(generate(cfg, plan, levels, pixels), cfg.params, cfg.length)


def _workers(jobs: int) -> int:
    """Worker processes for ``jobs``: at most one per CPU."""
    return 1 if jobs == 1 else min(jobs, os.cpu_count() or 1)


def _map(fn, items: list, jobs: int) -> list:
    """[fn(item) for item in items], over up to _workers(jobs) processes."""
    workers = min(_workers(jobs), len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute one (app, design, length, seed) run and score it."""
    planes = resolve_inputs(cfg)
    n_planes, height, width = planes.shape

    operands = planes.reshape(n_planes, -1)
    tasks = [(cfg, width, lo, hi, operands[:, lo:hi])
             for lo, hi in _block_slices(height * width, cfg.length, _workers(cfg.jobs))]
    pixels = np.concatenate(_map(_evaluate_block, tasks, cfg.jobs))

    output = ImageGray(pixels.reshape(height, width))
    golden = golden_eval(cfg.app, planes, cfg.params)
    inaccuracy = error_metric(output, golden)

    return ExperimentReport(
        cfg=cfg,
        inaccuracy_percent=inaccuracy,
        output=output,
        area=area_report(cfg.design, cfg.app, cfg.costs),
        energy=energy_report(cfg.design, cfg.app, cfg.length, n_planes, cfg.costs),
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
