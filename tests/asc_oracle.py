"""Expected inaccuracy of a run on the ASC designs, computed without streams.

On conv-mtj and stochmem every generator draws a fresh SplitMix64 uniform
each cycle, and bit j of a source is draw j of its group compared against the
source's threshold.  So, given a run's stream levels (the probabilities
harness._stream_levels gives), a pixel's output bits are i.i.d. Bernoulli(q)
across cycles, with q a closed form of its circuit:

* robert: q = s |a - d| + (1 - s) |b - c|: a, d share one group and b, c
  another, so each XOR is 1 between its two thresholds, and the select s is
  independent of both;
* median: q is the median of the nine levels, which share one group, so the
  AND/OR network passes the comparator at the middle threshold;
* gamma: q = sum_k C(n, k) x^k (1 - x)^(n - k) c_k: the ones count among the
  n independent replicas at level x picks the coefficient stream c_k a cycle
  reads;
* frame: q = |a - b| is the XOR of the shared-group current and previous
  frames, and the output is 1 iff its ones count exceeds theta L.

A pixel's output is its ones count K ~ Binomial(L, q) over L (robert, median,
gamma) or the indicator K > theta L (frame); its error is its distance to the
golden output, and the pixels' generators are independent.  So the run's
inaccuracy, 100 times the mean error, has its mean and SD from binomial pmfs
(the binomial error model of stochastic streams: Alaghi & Hayes, "Survey of
stochastic computing", ACM TECS 2013).

kde's 33 streams share one uniform u per cycle, and a stream at level p is one
iff u < p (p >= 1: always, so its level is the whole range).  The levels and
0 and 1 cut [0, 1] into at most 34 cells, and the counts of the L draws in
the cells are Multinomial(L, cell widths); the XOR distance of the current
stream to history stream k is the count between their two levels.
kde_samples samples those counts, for every pixel at once, and scores each
sample with kde_batch's rule; at L = 1 kde_exact sums over the cell of the
one draw instead.  kde_exact_counts is exact at any L: the history levels at
or above the current level p0 lie at nested distances a_1 <= a_2 <= ... above
it, those below at b_1 <= b_2 <= ... below it, and history k matches iff the
draws between its level and p0 number at most D = floor(delta L).  So the
matches above are at least j iff the X_j draws in [p0, p0 + a_j) are at most
D, and below at least i iff the Y_i draws in [p0 - b_i, p0) are; (X_j, Y_i)
are two cells of a Multinomial(L, (a_j, b_i, 1 - a_j - b_i)), so

    P(above >= j, below >= i) = sum_{x <= D} Binom(x; L, a_j)
                                * BinomCDF(D; L - x, b_i / (1 - a_j)),

and differencing over j and i gives the joint law of the two match counts,
whose sum kde_batch's rule scores.

The levels and goldens come from the engine's value stage
(harness.block_values over every pixel), so the operand wiring, the memory
path and the golden forms stay in one place; the closed forms above replace
the streams and circuits.  Every pixel is evaluated at once, so keep the
images small.
"""

import math

import numpy as np
from scipy.stats import binom

from stochmem.circuits import KDE_HISTORY, AppKind
from stochmem.costs import SystemDesign
from stochmem.harness import ExperimentConfig, block_values, resolve_inputs


def _robert(levels, params):
    a, b, c, d, s = levels
    return s * np.abs(a - d) + (1 - s) * np.abs(b - c)


def _median(levels, params):
    return np.sort(levels, axis=0)[4]


def _frame(levels, params):
    return np.abs(levels[0] - levels[1])


def _gamma(levels, params):
    n = params.bernstein_degree
    x, coeffs = levels[0], levels[n:]
    return sum(binom.pmf(k, n, x) * c for k, c in enumerate(coeffs))


_BIT_PROBABILITY = {AppKind.ROBERT: _robert, AppKind.MEDIAN: _median, AppKind.FRAME: _frame,
                    AppKind.GAMMA: _gamma}


def _levels_and_golden(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """(source, pixel) stream levels and the golden output at each flat
    row-major pixel of cfg's run on an ASC design."""
    if cfg.design is SystemDesign.CONV_LFSR:
        raise ValueError(f"no closed form for {cfg.app.value} on {cfg.design.value}")
    frames = resolve_inputs(cfg)
    levels, golden, _ = block_values(cfg, frames, 0, frames[-1].data.size)
    return np.asarray(levels), golden


def bit_probabilities(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """(q, golden) at each flat row-major pixel of cfg's run: the probability
    of a one in its output stream (frame: in its XOR stream), and its golden
    output."""
    if cfg.app not in _BIT_PROBABILITY:
        raise ValueError(f"no closed form for {cfg.app.value} on {cfg.design.value}")
    levels, golden = _levels_and_golden(cfg)
    # rounding can carry a sum of probabilities past 0 or 1 (gamma at exponent 0)
    return np.clip(_BIT_PROBABILITY[cfg.app](levels, cfg.params), 0.0, 1.0), golden


def _kde_cells(levels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(widths, ranks): the (pixel, cell) widths of the cells that 0, 1 and
    the (source, pixel) levels cut [0, 1] into, and the (pixel, source) index
    of each level among the cell bounds, so that the draws below a level are
    the counts of the cells before its index."""
    levels = np.clip(levels.T, 0.0, 1.0)
    n, sources = levels.shape
    bounds = np.concatenate([np.zeros((n, 1)), levels, np.ones((n, 1))], axis=1)
    order = np.argsort(bounds, axis=1, kind="stable")
    ranks = np.empty_like(order)
    np.put_along_axis(ranks, order, np.arange(sources + 2), axis=1)
    widths = np.diff(np.take_along_axis(bounds, order, axis=1), axis=1)
    return widths, ranks[:, 1:-1]


def _kde_errors(counts: np.ndarray, ranks: np.ndarray, golden: np.ndarray,
                params, length: int) -> np.ndarray:
    """(..., pixel) errors of kde outputs whose draws fall in the cells with
    (..., pixel, cell) counts, by kde_batch's rule."""
    below = np.concatenate([np.zeros(counts.shape[:-1] + (1,), dtype=counts.dtype),
                            np.cumsum(counts, axis=-1)], axis=-1)
    # the draws below each source's level, (..., pixel, source)
    ones = np.take_along_axis(below, np.broadcast_to(ranks, counts.shape[:-2] + ranks.shape),
                              axis=-1)
    distances = np.abs(ones[..., 1:] - ones[..., :1])
    matches = (distances <= params.delta * length).sum(axis=-1)
    return np.abs((matches / KDE_HISTORY < params.theta) - golden)


def kde_exact(cfg: ExperimentConfig) -> tuple[float, float]:
    """Mean and SD of a kde run's inaccuracy_percent at L = 1: the one draw
    falls in cell c with probability its width, and that cell decides every
    pixel's output."""
    if cfg.app is not AppKind.KDE or cfg.length != 1:
        raise ValueError("the exact form is kde's at length 1")
    levels, golden = _levels_and_golden(cfg)
    widths, ranks = _kde_cells(levels)
    cells = widths.shape[1]
    # err[c, i]: pixel i's error when its draw is in cell c
    err = _kde_errors(np.broadcast_to(np.eye(cells, dtype=np.int64)[:, None],
                                      (cells,) + widths.shape), ranks, golden, cfg.params, 1)
    mean = (widths.T * err).sum(axis=0)
    var = np.maximum((widths.T * err**2).sum(axis=0) - mean**2, 0.0)
    return 100 * float(mean.mean()), 100 * float(np.sqrt(var.sum())) / golden.size


def kde_exact_counts(cfg: ExperimentConfig) -> tuple[float, float]:
    """Mean and SD of a kde run's inaccuracy_percent at any L, from the joint
    law of each pixel's match counts above and below its current level."""
    if cfg.app is not AppKind.KDE:
        raise ValueError(f"no multinomial form for {cfg.app.value}")
    levels, golden = _levels_and_golden(cfg)
    levels = np.clip(levels, 0.0, 1.0)
    length, n = cfg.length, levels.shape[1]
    cap = math.floor(cfg.params.delta * length)
    offsets = levels[1:].T - levels[0][:, None]
    # (pixel, KDE_HISTORY + 1) nested distances, 0 first; rows past a pixel's
    # count of levels on that side are masked
    above = np.sort(np.where(offsets >= 0, offsets, np.inf), axis=1)
    below = np.sort(np.where(offsets < 0, -offsets, np.inf), axis=1)
    above, below = (np.concatenate([np.zeros((n, 1)), d], axis=1) for d in (above, below))
    valid = np.isfinite(above)[:, :, None] & np.isfinite(below)[:, None, :]
    a = np.where(np.isfinite(above), above, 0.0)[:, :, None, None]
    b = np.where(np.isfinite(below), below, 0.0)[:, None, :, None]
    x = np.arange(cap + 1)
    rest = np.clip(np.divide(b, 1.0 - a, out=np.zeros(np.broadcast_shapes(a.shape, b.shape)),
                             where=a < 1.0), 0.0, 1.0)
    at_least = np.where(valid, (binom.pmf(x, length, a) * binom.cdf(cap, length - x, rest))
                        .sum(axis=-1), 0.0)
    # P(above = j, below = i), by differencing the survival law over j and i
    padded = np.pad(at_least, ((0, 0), (0, 1), (0, 1)))
    joint = padded[:, :-1, :-1] - padded[:, 1:, :-1] - padded[:, :-1, 1:] + padded[:, 1:, 1:]
    matches = np.add.outer(np.arange(KDE_HISTORY + 1), np.arange(KDE_HISTORY + 1))
    flagged = (joint * (matches / KDE_HISTORY < cfg.params.theta)).sum(axis=(1, 2))
    mean = np.where(golden == 1.0, 1.0 - flagged, flagged)
    var = np.maximum(mean - mean**2, 0.0)
    return 100 * float(mean.mean()), 100 * float(np.sqrt(var.sum())) / n


def kde_samples(cfg: ExperimentConfig, samples: int = 4000, seed: int = 0) -> np.ndarray:
    """inaccuracy_percent of ``samples`` kde runs whose cell counts are drawn
    from their multinomials with a fixed-seed generator, given cfg's levels."""
    if cfg.app is not AppKind.KDE:
        raise ValueError(f"no multinomial form for {cfg.app.value}")
    levels, golden = _levels_and_golden(cfg)
    widths, ranks = _kde_cells(levels)
    gen = np.random.default_rng(seed)
    chunk = max(1, 1_000_000 // widths.size)
    runs = []
    for lo in range(0, samples, chunk):
        size = (min(chunk, samples - lo), len(widths))
        counts = gen.multinomial(cfg.length, widths, size=size)
        runs.append(100 * _kde_errors(counts, ranks, golden, cfg.params, cfg.length).mean(axis=-1))
    return np.concatenate(runs)


def expected_inaccuracy(cfg: ExperimentConfig) -> tuple[float, float]:
    """Mean and SD of cfg's inaccuracy_percent over its streams' draws."""
    if cfg.app is AppKind.KDE:
        return kde_exact_counts(cfg)
    q, golden = bit_probabilities(cfg)
    length = cfg.length
    k = np.arange(length + 1)
    pmf = binom.pmf(k, length, q[:, None])
    # frame_batch compares the count with theta * length in floating point
    out = (k > cfg.params.theta * length) * 1.0 if cfg.app is AppKind.FRAME else k / length
    err = np.abs(out - golden[:, None])
    mean = (pmf * err).sum(axis=1)
    var = np.maximum((pmf * err**2).sum(axis=1) - mean**2, 0.0)
    return 100 * float(mean.mean()), 100 * float(np.sqrt(var.sum())) / q.size
