"""End-to-end experiment runner.

For each pixel the harness stores the operand values through the design's
memory path, regenerates stochastic streams from the values read back, and
evaluates the application circuit:

* conv-lfsr: quantize, digital memory, LFSR+comparator stream generation;
* conv-mtj:  quantize, digital memory, 8-bit DAC recode, Bernoulli sampling;
* stochmem:  analog memory with read/write discrepancy, Bernoulli sampling.

Streams that a circuit requires to be correlated share one generator
identity (global seed, pixel, stream group); everything else gets its own
group, so results are bit-identical for any worker partition.

Images are processed in blocks of whole rows.  Within a block every stream
is generated packed, as (pixels, words_for(length)) uint64 rows in the
bitstream layout, and stays packed through the circuit; bits past the
length are always zero, so popcounts and XOR distances need no masking.
The ASC designs compare SplitMix64 draws, made in row tiles that share one
group's draws between its sources, against each source's threshold.
conv-lfsr reads each 64-bit word as a window into a per-block table of
packed comparator outputs over one LFSR period.  Neither tile nor block
size changes any output bit.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import circuits
from .bitstream import (MAX_LENGTH, Bitstream, pack_bool_matrix, popcount_rows, tail_mask,
                        words_for)
from .circuits import AppInputs, AppKind, AppParams, fit_bernstein, golden_eval
from .converters import ADC_BITS, DAC_BITS
from .costs import (AccessCounts, AccessMultipliers, CostReport, SystemDesign,
                    area_report, default_profile, energy_report, share_breakdown)
from .images import ImageGray, error_metric, load_pgm
from .lfsr import LfsrCycle, LfsrSpec
from .memory import MemoryInstance, NoiseModel, mem_read_block, mem_write_block
from .rng import SeedSpec, bernoulli_threshold_u64, derive_state, \
    derive_state_grid, uniform_block_from_states
from .synth import INPUT_SEED, gen_test_inputs

# Read/write discrepancy calibrated against the published accuracy gap at
# length 1024; scripts/calibrate_defaults.py regenerates it.
DEFAULT_NOISE_SIGMA = 0.00625

PAPER_LENGTHS = (128, 256, 512, 1024)
DEFAULT_SEEDS = 20

# stream cells (pixels x length) per pixel block; a block never goes below one
# image row
_BLOCK_CELLS = 2_000_000
# uniform draws per row tile, so a tile and its mixer temporary stay in cache
_TILE_CELLS = 65_536

# stream-group identities; operand groups occupy 0..7
_GROUP_SELECT = 8
_GROUP_COEFF_BASE = 16
_SID_WRITE_NOISE = 64
_SID_READ_NOISE = 96


@dataclass(frozen=True)
class ExperimentConfig:
    app: AppKind = AppKind.ROBERT
    design: SystemDesign = SystemDesign.CONV_LFSR
    length: int = 1024
    global_seed: int = 1
    noise: NoiseModel = NoiseModel(DEFAULT_NOISE_SIGMA, DEFAULT_NOISE_SIGMA)
    params: AppParams = AppParams()
    multipliers: AccessMultipliers = AccessMultipliers()
    dims: tuple[int, int] = (128, 128)
    input_seed: int = INPUT_SEED
    input_path: str | None = None
    frames_dir: str | None = None
    dsc_free_run: bool = False
    adc_bits: int = ADC_BITS
    dac_bits: int = DAC_BITS
    jobs: int = 1

    def __post_init__(self):
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(f"length must be in 1..{MAX_LENGTH}, got {self.length}")
        if self.jobs < 1:
            raise ValueError("jobs must be positive")


@dataclass
class ExperimentReport:
    app: AppKind
    design: SystemDesign
    length: int
    seed: int
    inaccuracy_percent: float
    output: ImageGray
    access_per_pixel: AccessCounts
    area: CostReport
    energy: CostReport           # fed by the measured access counters
    energy_default: CostReport   # analytic default access counts
    wall_time_s: float


# ---------------------------------------------------------------------------
# inputs


@lru_cache(maxsize=16)
def _default_inputs(app: AppKind, dims: tuple[int, int], seed: int) -> AppInputs:
    if app is AppKind.ROBERT or app is AppKind.GAMMA:
        return AppInputs(image=gen_test_inputs("scene", dims, seed))
    if app is AppKind.MEDIAN:
        return AppInputs(image=gen_test_inputs("salt-pepper", dims, seed))
    video = gen_test_inputs("video", dims, seed)
    if app is AppKind.FRAME:
        return AppInputs(image=video[-1], prev=video[-2])
    return AppInputs(image=video[-1], history=tuple(video[:circuits.KDE_HISTORY]))


def resolve_inputs(cfg: ExperimentConfig) -> AppInputs:
    if cfg.frames_dir is not None:
        frames = sorted(Path(cfg.frames_dir).glob("*.pgm"))
        need = circuits.KDE_HISTORY + 1 if cfg.app is AppKind.KDE else 2
        if len(frames) < need:
            raise ValueError(f"{cfg.frames_dir}: need at least {need} frames, "
                             f"found {len(frames)}")
        imgs = [load_pgm(p) for p in frames]
        if cfg.app is AppKind.KDE:
            return AppInputs(image=imgs[circuits.KDE_HISTORY],
                             history=tuple(imgs[:circuits.KDE_HISTORY]))
        return AppInputs(image=imgs[-1], prev=imgs[-2])
    if cfg.input_path is not None:
        if cfg.app in (AppKind.FRAME, AppKind.KDE):
            raise ValueError(f"{cfg.app.value} needs --frames, not a single image")
        return AppInputs(image=load_pgm(cfg.input_path))
    return _default_inputs(cfg.app, cfg.dims, cfg.input_seed)


# ---------------------------------------------------------------------------
# per-app stream wiring


@dataclass(frozen=True)
class _StreamPlan:
    sources: tuple            # ("op", slot) or ("const", value)
    groups: tuple[int, ...]
    n_slots: int


@lru_cache(maxsize=8)
def _gamma_poly(exponent: float, degree: int) -> circuits.BernsteinPoly:
    poly, _ = fit_bernstein(lambda x: x ** exponent, degree)
    return poly


def _stream_plan(app: AppKind, params: AppParams) -> _StreamPlan:
    if app is AppKind.ROBERT:
        # cross pairs (p00, p11) and (p01, p10) are correlated; select is not
        return _StreamPlan((("op", 0), ("op", 1), ("op", 2), ("op", 3), ("const", 0.5)),
                           (0, 1, 1, 0, _GROUP_SELECT), 4)
    if app is AppKind.MEDIAN:
        return _StreamPlan(tuple(("op", j) for j in range(9)), (0,) * 9, 9)
    if app is AppKind.FRAME:
        return _StreamPlan((("op", 0), ("op", 1)), (0, 0), 2)
    if app is AppKind.GAMMA:
        # the x replicas must be mutually independent; the coefficient
        # streams may share one generator because each cycle samples
        # exactly one of them
        poly = _gamma_poly(params.gamma_exponent, params.bernstein_degree)
        deg = params.bernstein_degree
        sources = tuple(("op", 0) for _ in range(deg))
        sources += tuple(("const", c) for c in poly.coeffs)
        groups = tuple(range(deg)) + (_GROUP_COEFF_BASE,) * (deg + 1)
        return _StreamPlan(sources, groups, 1)
    n_hist = circuits.KDE_HISTORY
    return _StreamPlan(tuple(("op", j) for j in range(1 + n_hist)),
                       (0,) * (1 + n_hist), 1 + n_hist)


def _shift_plane(data: np.ndarray, dy: int, dx: int) -> np.ndarray:
    """Neighbor plane with clamp-to-edge borders."""
    h, w = data.shape
    pad = np.pad(data, ((max(0, -dy), max(0, dy)), (max(0, -dx), max(0, dx))), mode="edge")
    y0 = max(0, -dy) + dy
    x0 = max(0, -dx) + dx
    return pad[y0:y0 + h, x0:x0 + w]


def _operand_planes(app: AppKind, inputs: AppInputs) -> np.ndarray:
    img = inputs.image.data
    if app is AppKind.ROBERT:
        offs = ((0, 0), (0, 1), (1, 0), (1, 1))
        return np.stack([_shift_plane(img, dy, dx) for dy, dx in offs])
    if app is AppKind.MEDIAN:
        offs = [(dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1)]
        return np.stack([_shift_plane(img, dy, dx) for dy, dx in offs])
    if app is AppKind.FRAME:
        return np.stack([img, inputs.prev.data])
    if app is AppKind.GAMMA:
        return img[None, :, :]
    return np.stack([img] + [h.data for h in inputs.history])


# ---------------------------------------------------------------------------
# pixel-block pipeline


def _round_half_up(x: np.ndarray) -> np.ndarray:
    return np.floor(x + 0.5)


def _block_slices(n_rows: int, width: int, length: int):
    rows = max(1, (_BLOCK_CELLS // max(length, 1)) // max(width, 1))
    for lo in range(0, n_rows, rows):
        yield lo, min(lo + rows, n_rows)


def _stored_values(cfg: ExperimentConfig, mem: MemoryInstance, values: np.ndarray,
                   addrs: np.ndarray, xs: np.ndarray, ys: np.ndarray,
                   slot: int) -> np.ndarray:
    """Route one operand slot through the design's memory; returns what the
    stream generator will see (codes at ADC scale, or the analog value)."""
    if cfg.design is SystemDesign.STOCHMEM:
        w_states = derive_state_grid(cfg.global_seed, xs, ys, _SID_WRITE_NOISE + slot)
        r_states = derive_state_grid(cfg.global_seed, xs, ys, _SID_READ_NOISE + slot)
        mem_write_block(mem, addrs, values, w_states)
        return mem_read_block(mem, addrs, r_states)
    scale = (1 << cfg.adc_bits) - 1
    codes = _round_half_up(values * scale)
    mem_write_block(mem, addrs, codes / scale)
    return _round_half_up(mem_read_block(mem, addrs) * scale)


def _stream_level(cfg: ExperimentConfig, source, stored: dict[int, np.ndarray],
                  n: int) -> np.ndarray:
    """Per-pixel comparator code (conv-lfsr) or probability (ASC designs)."""
    adc_scale = (1 << cfg.adc_bits) - 1
    dac_scale = (1 << cfg.dac_bits) - 1
    kind, val = source
    if kind == "op":
        base = stored[val]
        if cfg.design is SystemDesign.CONV_LFSR:
            return base
        if cfg.design is SystemDesign.CONV_MTJ:
            return _round_half_up(base / adc_scale * dac_scale) / dac_scale
        return base
    # constants bypass memory but use the design's generation path
    if cfg.design is SystemDesign.CONV_LFSR:
        code = float(_round_half_up(np.float64(val * adc_scale)))
        return np.full(n, code)
    if cfg.design is SystemDesign.CONV_MTJ:
        code = _round_half_up(np.float64(val * adc_scale))
        p = float(_round_half_up(code / adc_scale * dac_scale)) / dac_scale
        return np.full(n, p)
    return np.full(n, val)


def _asc_streams(cfg: ExperimentConfig, plan: _StreamPlan, levels: list[np.ndarray],
                 xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """Bernoulli streams of the ASC designs: bit j of source s at pixel i is
    draw j of its group's SplitMix64 sequence at pixel i compared against the
    source's threshold.  Draws are made in row tiles of about _TILE_CELLS
    cells and shared by every source of the group."""
    length = cfg.length
    n = xs.size
    streams = np.empty((len(plan.sources), n, words_for(length)), dtype=np.uint64)
    thresholds = [bernoulli_threshold_u64(p)[:, None] for p in levels]
    step = max(1, _TILE_CELLS // length)
    for group in dict.fromkeys(plan.groups):
        members = [s for s, g in enumerate(plan.groups) if g == group]
        states = derive_state_grid(cfg.global_seed, xs, ys, group)
        for lo in range(0, n, step):
            draws = uniform_block_from_states(states[lo:lo + step], length)
            for s in members:
                streams[s, lo:lo + step] = pack_bool_matrix(draws < thresholds[s][lo:lo + step])
    # p >= 1 has no strict-compare threshold
    ones = Bitstream.ones(length).words
    for stream, p in zip(streams, levels):
        stream[p >= 1.0] = ones
    return streams


def _dsc_streams(cfg: ExperimentConfig, plan: _StreamPlan, levels: list[np.ndarray],
                 xs: np.ndarray, ys: np.ndarray, pix_idx: np.ndarray) -> np.ndarray:
    """LFSR+comparator streams of conv-lfsr: bit j of source s at pixel i is
    ring[(start_i + j) mod period] <= code_s,i, where start_i is set by the
    source's group at pixel i.

    Row c of a packed table holds ring[k mod period] <= c for k over one
    period plus 128 values, so word w of a stream is the unaligned 64-bit
    window of row code at bit offset (start + 64 w) mod period, and no window
    runs past the row.
    """
    length = cfg.length
    cycle = LfsrCycle.for_spec(LfsrSpec())
    period = cycle.spec.period
    ring = cycle.sequence_block(np.zeros(1, dtype=np.int64), period + 128)[0]
    k = np.arange(ring.size)
    # set bit k in row ring[k], then OR each row into the next: row c ends up
    # with bit k set iff ring[k] <= c
    table = np.zeros((period + 1, words_for(ring.size)), dtype=np.uint64)
    np.bitwise_or.at(table, (ring, k >> 6), np.uint64(1) << (k & 63).astype(np.uint64))
    np.bitwise_or.accumulate(table, axis=0, out=table)
    row_words = table.shape[1]
    table = table.ravel()
    word_starts = 64 * np.arange(words_for(length), dtype=np.int64)
    streams = np.empty((len(plan.sources), pix_idx.size, words_for(length)), dtype=np.uint64)
    windows: dict[int, tuple[np.ndarray, np.ndarray]] = {}
    for s, (group, level) in enumerate(zip(plan.groups, levels)):
        if group not in windows:
            if cfg.dsc_free_run:
                base = derive_state(SeedSpec(cfg.global_seed, 0, 0, group))
                first = int(cycle.position[base % period + 1])
                start = (first + pix_idx.astype(np.int64) * length) % period
            else:
                states = derive_state_grid(cfg.global_seed, xs, ys, group)
                seeds = (states % np.uint64(period)).astype(np.int64) + 1
                start = cycle.position[seeds].astype(np.int64)
            offsets = (start[:, None] + word_starts) % period
            windows[group] = (offsets >> 6, (offsets & 63).astype(np.uint64))
        word, shift = windows[group]
        # ring values never exceed period, so larger codes compare like period
        code = np.minimum(level.astype(np.uint16), period).astype(np.int64)
        idx = code[:, None] * row_words + word
        # the split left shift is 64 - shift for shift 1..63 and drops the
        # high word at shift 0, where a single shift by 64 is undefined
        streams[s] = (table[idx] >> shift) | (table[idx + 1] << (63 - shift) << 1)
    streams[:, :, -1] &= np.uint64(tail_mask(length))
    return streams


def _evaluate_block(cfg: ExperimentConfig, plan: _StreamPlan, planes: np.ndarray,
                    mem: MemoryInstance, row_lo: int, row_hi: int,
                    addr_base: int) -> np.ndarray:
    width = planes.shape[2]
    length = cfg.length
    ys, xs = np.mgrid[row_lo:row_hi, 0:width]
    xs = xs.ravel()
    ys = ys.ravel()
    n = xs.size
    pix_idx = ys * width + xs

    stored: dict[int, np.ndarray] = {}
    for slot in range(plan.n_slots):
        addrs = addr_base + (pix_idx - row_lo * width) * plan.n_slots + slot
        values = planes[slot, ys, xs]
        stored[slot] = _stored_values(cfg, mem, values, addrs, xs, ys, slot)

    levels = [_stream_level(cfg, source, stored, n) for source in plan.sources]
    if cfg.design is SystemDesign.CONV_LFSR:
        streams = _dsc_streams(cfg, plan, levels, xs, ys, pix_idx)
    else:
        streams = _asc_streams(cfg, plan, levels, xs, ys)

    app = cfg.app
    if app is AppKind.ROBERT:
        return popcount_rows(circuits.robert_batch(*streams)) / length
    if app is AppKind.MEDIAN:
        return popcount_rows(circuits.median_batch(streams)) / length
    if app is AppKind.FRAME:
        return circuits.frame_batch(streams[0], streams[1], cfg.params.theta, length)
    if app is AppKind.GAMMA:
        deg = cfg.params.bernstein_degree
        return circuits.gamma_batch_counts(streams[:deg], streams[deg:]) / length
    return circuits.kde_batch(streams[0], streams[1:], cfg.params.delta, cfg.params.theta,
                              length)


def _run_rows(cfg: ExperimentConfig, inputs: AppInputs,
              row_lo: int, row_hi: int) -> tuple[np.ndarray, int, int]:
    """Process a contiguous row range; returns (pixels, reads, writes)."""
    plan = _stream_plan(cfg.app, cfg.params)
    planes = _operand_planes(cfg.app, inputs)
    height, width = planes.shape[1], planes.shape[2]
    mem_cap = (row_hi - row_lo) * width * plan.n_slots
    if cfg.design is SystemDesign.STOCHMEM:
        mem = MemoryInstance.analog(mem_cap, cfg.noise)
    else:
        mem = MemoryInstance.digital(mem_cap, word_bits=cfg.adc_bits)
    out = np.empty(((row_hi - row_lo) * width,))
    for lo, hi in _block_slices(row_hi - row_lo, width, cfg.length):
        seg = _evaluate_block(cfg, plan, planes, mem, row_lo + lo, row_lo + hi,
                              addr_base=lo * width * plan.n_slots)
        out[lo * width:hi * width] = seg
    return out, mem.stats.reads, mem.stats.writes


def _run_rows_star(args):
    return _run_rows(*args)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Execute one (app, design, length, seed) run and score it."""
    t0 = time.perf_counter()
    inputs = resolve_inputs(cfg)
    height, width = inputs.image.height, inputs.image.width
    plan = _stream_plan(cfg.app, cfg.params)

    if cfg.jobs == 1:
        pixels, reads, writes = _run_rows(cfg, inputs, 0, height)
    else:
        bounds = np.linspace(0, height, cfg.jobs + 1).astype(int)
        tasks = [(replace(cfg, jobs=1), inputs, int(lo), int(hi))
                 for lo, hi in zip(bounds[:-1], bounds[1:]) if hi > lo]
        with ProcessPoolExecutor(max_workers=cfg.jobs) as pool:
            parts = list(pool.map(_run_rows_star, tasks))
        pixels = np.concatenate([p for p, _, _ in parts])
        reads = sum(r for _, r, _ in parts)
        writes = sum(w for _, _, w in parts)

    output = ImageGray(width, height, pixels.reshape(height, width))
    golden = golden_eval(cfg.app, inputs, cfg.params)
    inaccuracy = error_metric(output, golden)

    n_pixels = width * height
    profile = default_profile(cfg.app)
    conv = cfg.design in (SystemDesign.CONV_LFSR, SystemDesign.CONV_MTJ)
    access = AccessCounts(
        adc_conversions=plan.n_slots if conv else 0,
        dac_conversions=plan.n_slots if cfg.design is SystemDesign.CONV_MTJ else 0,
        mem_reads=reads / n_pixels,
        mem_writes=writes / n_pixels,
    )
    report = ExperimentReport(
        app=cfg.app, design=cfg.design, length=cfg.length, seed=cfg.global_seed,
        inaccuracy_percent=inaccuracy,
        output=output,
        access_per_pixel=access,
        area=area_report(cfg.design, profile),
        energy=energy_report(cfg.design, profile, cfg.length, access, cfg.multipliers),
        energy_default=energy_report(cfg.design, profile, cfg.length,
                                     multipliers=cfg.multipliers),
        wall_time_s=time.perf_counter() - t0,
    )
    return report


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
        r.app.value, r.design.value, str(r.length), str(r.seed),
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


def sweep(template: ExperimentConfig,
          apps: list[AppKind] | None = None,
          designs: list[SystemDesign] | None = None,
          lengths: tuple[int, ...] = PAPER_LENGTHS,
          n_seeds: int = DEFAULT_SEEDS,
          out_csv=None,
          jobs: int = 1) -> list[str]:
    """Run the cross product and return CSV lines (header first), sorted by
    (app, design, length, seed).  Seeds are global_seed + run index."""
    apps = list(apps or AppKind)
    designs = list(designs or SystemDesign)
    cfgs = [replace(template, app=a, design=d, length=length,
                    global_seed=template.global_seed + k, jobs=1)
            for a in apps for d in designs for length in lengths
            for k in range(n_seeds)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_one, cfgs, chunksize=4))
    else:
        results = [_sweep_one(c) for c in cfgs]
    results.sort(key=lambda kr: kr[0])
    lines = [",".join(CSV_COLUMNS)] + [row for _, row, _ in results]
    if out_csv is not None:
        Path(out_csv).write_text("\n".join(lines) + "\n")
    return lines


# ---------------------------------------------------------------------------
# calibration


def measure_noise_gap(sigma: float, template: ExperimentConfig,
                      n_seeds: int = 5, length: int = 1024,
                      jobs: int = 1) -> float:
    """Five-app average StochMem-minus-baseline inaccuracy gap in percentage
    points; the baseline is the Bernoulli-sampling conv design so the gap
    isolates the memory discrepancy."""
    noise = NoiseModel(sigma, sigma)
    gaps = []
    for app in AppKind:
        meds = {}
        for design in (SystemDesign.CONV_MTJ, SystemDesign.STOCHMEM):
            cfgs = [replace(template, app=app, design=design, length=length,
                            noise=noise, global_seed=template.global_seed + k,
                            jobs=1)
                    for k in range(n_seeds)]
            if jobs > 1:
                with ProcessPoolExecutor(max_workers=jobs) as pool:
                    inacc = [r.inaccuracy_percent for r in pool.map(run_experiment, cfgs)]
            else:
                inacc = [run_experiment(c).inaccuracy_percent for c in cfgs]
            meds[design] = float(np.median(inacc))
        gaps.append(meds[SystemDesign.STOCHMEM] - meds[SystemDesign.CONV_MTJ])
    return float(np.mean(gaps))


def calibrate_noise(target_gap_pp: float, template: ExperimentConfig | None = None,
                    tol_pp: float = 0.05, sigma_hi: float = 0.1,
                    n_seeds: int = 5, jobs: int = 1) -> tuple[NoiseModel, float]:
    """Bisect the shared read/write sigma until the measured gap matches."""
    if target_gap_pp < 0:
        raise ValueError("target gap must be nonnegative")
    template = template or ExperimentConfig()
    gap = lambda s: measure_noise_gap(s, template, n_seeds=n_seeds, jobs=jobs)
    g0 = gap(0.0)
    if g0 >= target_gap_pp - tol_pp:
        return NoiseModel(0.0, 0.0), g0
    ghi = gap(sigma_hi)
    if ghi < target_gap_pp - tol_pp:
        raise ValueError(
            f"target gap {target_gap_pp}pp unreachable: gap({sigma_hi}) = {ghi:.3f}pp")
    lo, hi = 0.0, sigma_hi
    gmid = ghi
    for _ in range(20):
        mid = 0.5 * (lo + hi)
        gmid = gap(mid)
        if abs(gmid - target_gap_pp) <= tol_pp:
            return NoiseModel(mid, mid), gmid
        if gmid < target_gap_pp:
            lo = mid
        else:
            hi = mid
    return NoiseModel(mid, mid), gmid


def calibrate_access(target_mtj_reduction: float = 45.7,
                     target_stoch_reduction: float = 11.1,
                     length: int = 1024) -> tuple[AccessMultipliers, float, float]:
    """Grid-search one global multiplier set against the published energy
    reductions; pure cost-model arithmetic, no simulation.

    Energy is linear in the multipliers, so each (design, app) total is
    probed once per multiplier axis and the grid is scored in closed form.
    """
    profiles = [default_profile(a) for a in AppKind]
    axes = ("adc", "write", "read", "dac")

    def totals(mult: AccessMultipliers) -> np.ndarray:
        return np.array([[energy_report(d, p, length, multipliers=mult).total
                          for d in SystemDesign] for p in profiles])

    base = totals(AccessMultipliers(0, 0, 0, 0))
    slopes = [totals(AccessMultipliers(**{a: 1.0 for a in (ax,)},
                                       **{a: 0.0 for a in axes if a != ax})) - base
              for ax in axes]

    def reductions(vals: tuple[float, ...]) -> tuple[float, float, bool]:
        e = base + sum(v * s for v, s in zip(vals, slopes))
        lfsr, mtj, stoch = e[:, 0], e[:, 1], e[:, 2]
        ordered = bool(np.all(stoch < mtj) and np.all(mtj < lfsr))
        return (100 * (1 - float(np.mean(mtj / lfsr))),
                100 * (1 - float(np.mean(stoch / mtj))), ordered)

    import itertools
    best = None
    grid = [round(v, 2) for v in np.arange(0.05, 1.01, 0.05)]
    for vals in itertools.product(grid, grid, (0.5, 0.75, 1.0), grid):
        red_ml, red_sm, ordered = reductions(vals)
        if not ordered:
            continue
        score = abs(red_ml - target_mtj_reduction) + abs(red_sm - target_stoch_reduction)
        if best is None or score < best[0]:
            best = (score, vals, red_ml, red_sm)
    _, vals, red_ml, red_sm = best
    return AccessMultipliers(*vals), red_ml, red_sm


# ---------------------------------------------------------------------------
# flat key=value config files

_CONFIG_KEYS = (
    "app", "design", "length", "seed", "write_sigma", "read_sigma", "theta",
    "delta", "gamma_exponent", "bernstein_degree", "free_run", "input",
    "frames_dir", "dims", "jobs", "input_seed", "mult_adc", "mult_write",
    "mult_read", "mult_dac",
)


def load_config(path, base: ExperimentConfig | None = None) -> ExperimentConfig:
    """Parse a flat key=value config; STOCHMEM_SEED overrides the seed."""
    cfg = base or ExperimentConfig()
    noise = dict(write_sigma=cfg.noise.write_sigma, read_sigma=cfg.noise.read_sigma)
    params = dict(theta=cfg.params.theta, delta=cfg.params.delta,
                  gamma_exponent=cfg.params.gamma_exponent,
                  bernstein_degree=cfg.params.bernstein_degree)
    mult = cfg.multipliers.as_dict()
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = (s.strip() for s in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
        if key == "app":
            cfg = replace(cfg, app=AppKind.from_name(value))
        elif key == "design":
            cfg = replace(cfg, design=SystemDesign.from_name(value))
        elif key == "length":
            cfg = replace(cfg, length=int(value))
        elif key == "seed":
            cfg = replace(cfg, global_seed=int(value))
        elif key == "input_seed":
            cfg = replace(cfg, input_seed=int(value))
        elif key == "jobs":
            cfg = replace(cfg, jobs=int(value))
        elif key == "input":
            cfg = replace(cfg, input_path=value)
        elif key == "frames_dir":
            cfg = replace(cfg, frames_dir=value)
        elif key == "free_run":
            cfg = replace(cfg, dsc_free_run=value.lower() in ("1", "true", "yes"))
        elif key == "dims":
            w, h = value.lower().split("x")
            cfg = replace(cfg, dims=(int(w), int(h)))
        elif key in ("write_sigma", "read_sigma"):
            noise[key] = float(value)
        elif key.startswith("mult_"):
            mult[key[5:]] = float(value)
        else:
            params[key] = int(value) if key == "bernstein_degree" else float(value)
    cfg = replace(cfg, noise=NoiseModel(**noise), params=AppParams(**params),
                  multipliers=AccessMultipliers(**mult))
    return apply_env_overrides(cfg)


def apply_env_overrides(cfg: ExperimentConfig) -> ExperimentConfig:
    seed = os.environ.get("STOCHMEM_SEED")
    if seed is not None:
        cfg = replace(cfg, global_seed=int(seed))
    return cfg
