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
stochastic computing", ACM TECS 2013).  kde, whose 33 streams share one
uniform, needs a multinomial over the cells between its sorted levels and is
not covered.

The levels and goldens come from the package (resolve_inputs,
operand_columns, stream_plan, pixel_states, _stream_levels, golden_eval), so
the operand wiring and the memory path stay in one place; the closed forms
above replace the streams and circuits.  Every pixel is evaluated at once, so
keep the images small.
"""

import numpy as np
from scipy.stats import binom

from stochmem.circuits import AppKind, golden_eval, stream_plan
from stochmem.costs import SystemDesign
from stochmem.harness import ExperimentConfig, _stream_levels, operand_columns, resolve_inputs
from stochmem.rng import pixel_states


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


def bit_probabilities(cfg: ExperimentConfig) -> tuple[np.ndarray, np.ndarray]:
    """(q, golden) at each flat row-major pixel of cfg's run: the probability
    of a one in its output stream (frame: in its XOR stream), and its golden
    output."""
    if cfg.design is SystemDesign.CONV_LFSR or cfg.app not in _BIT_PROBABILITY:
        raise ValueError(f"no closed form for {cfg.app.value} on {cfg.design.value}")
    frames = resolve_inputs(cfg)
    height, width = frames[-1].data.shape
    operands = operand_columns(cfg.app, frames, 0, height * width)
    ys, xs = np.divmod(np.arange(height * width, dtype=np.uint64), np.uint64(width))
    levels = _stream_levels(cfg, stream_plan(cfg.app, cfg.params), operands,
                            pixel_states(cfg.global_seed, xs, ys))
    golden = golden_eval(cfg.app, operands[:, None], cfg.params).data[0]
    return _BIT_PROBABILITY[cfg.app](np.asarray(levels), cfg.params), golden


def expected_inaccuracy(cfg: ExperimentConfig) -> tuple[float, float]:
    """Mean and SD of cfg's inaccuracy_percent over its streams' draws."""
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
