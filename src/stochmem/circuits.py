"""Stochastic logic primitives and the five benchmark circuits.

Correlation is part of each circuit's contract: streams fed to XOR (absolute
difference) or to the AND/OR compare-exchange network (min/max) must share
one generator, while mux selects and the power-function input replicas must
be independent.  Every circuit has an exact floating-point golden evaluator
defining its maximum-possible-accuracy output.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bitstream import Bitstream, popcount_rows, tail_mask, words_for
from .images import ImageGray

KDE_HISTORY = 32


class GateKind(enum.Enum):
    AND = "and"
    OR = "or"
    XOR = "xor"
    NOT = "not"
    MUX = "mux"


class AppKind(enum.Enum):
    ROBERT = "robert"
    MEDIAN = "median"
    FRAME = "frame"
    GAMMA = "gamma"
    KDE = "kde"

    @classmethod
    def from_name(cls, name: str) -> "AppKind":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown application {name!r}; expected one of "
                             f"{[a.value for a in cls]}") from None


@dataclass(frozen=True)
class AppParams:
    theta: float = 0.1
    delta: float = 0.1
    gamma_exponent: float = 0.45
    bernstein_degree: int = 6

    def __post_init__(self):
        for name in ("theta", "delta"):
            value = getattr(self, name)
            if not value >= 0:
                raise ValueError(f"{name} must be nonnegative, got {value}")
        if self.bernstein_degree < 1:
            raise ValueError(f"bernstein_degree must be at least 1, got {self.bernstein_degree}")


@dataclass(frozen=True)
class AppInputs:
    """Input planes for one run: image (current frame), and for the video
    apps the previous frame or the history window."""

    image: ImageGray
    prev: ImageGray | None = None
    history: tuple[ImageGray, ...] = ()


# ---------------------------------------------------------------------------
# word-level gate helpers


def _require_same_length(streams) -> int:
    lengths = {s.length for s in streams}
    if len(lengths) != 1:
        raise ValueError(f"stream length mismatch: {sorted(lengths)}")
    return lengths.pop()


def _not_words(words: np.ndarray, length: int) -> np.ndarray:
    out = ~words
    out[-1] &= np.uint64(tail_mask(length))
    return out


def gate_eval(kind: GateKind, *inputs: Bitstream) -> Bitstream:
    """Bitwise gate over equal-length streams; MUX takes (a, b, select)."""
    if kind is GateKind.NOT:
        (a,) = inputs
        return Bitstream(_not_words(a.words, a.length), a.length)
    if kind is GateKind.MUX:
        a, b, sel = inputs
        length = _require_same_length(inputs)
        out = (a.words & sel.words) | (b.words & _not_words(sel.words, length))
        return Bitstream(out, length)
    if len(inputs) < 2:
        raise ValueError(f"{kind.value} gate needs at least two inputs")
    length = _require_same_length(inputs)
    acc = inputs[0].words.copy()
    for s in inputs[1:]:
        if kind is GateKind.AND:
            acc &= s.words
        elif kind is GateKind.OR:
            acc |= s.words
        else:
            acc ^= s.words
    return Bitstream(acc, length)


# ---------------------------------------------------------------------------
# edge detection (two XORs into a mux)


def robert_eval(p00: Bitstream, p01: Bitstream, p10: Bitstream, p11: Bitstream,
                sel: Bitstream) -> Bitstream:
    """Cross-difference edge magnitude 0.5*(|p00-p11| + |p01-p10|).

    (p00, p11) and (p01, p10) must each share a generator; sel carries 0.5
    and must be independent of the pixel streams.
    """
    length = _require_same_length((p00, p01, p10, p11, sel))
    x1 = p00.words ^ p11.words
    x2 = p01.words ^ p10.words
    out = (x1 & sel.words) | (x2 & _not_words(sel.words, length))
    return Bitstream(out, length)


def robert_batch(b00, b01, b10, b11, bsel) -> np.ndarray:
    return ((b00 ^ b11) & bsel) | ((b01 ^ b10) & ~bsel)


# ---------------------------------------------------------------------------
# 3x3 median (19 compare-exchange AND/OR pairs; minimal 9-input network)

MEDIAN9_PAIRS = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8),
    (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4),
    (4, 2),
)
MEDIAN9_OUT = 4


def median_eval(streams: list[Bitstream]) -> Bitstream:
    """Median of nine mutually correlated streams (AND=min, OR=max)."""
    if len(streams) != 9:
        raise ValueError(f"median filter takes 9 streams, got {len(streams)}")
    length = _require_same_length(streams)
    regs = [s.words.copy() for s in streams]
    for i, j in MEDIAN9_PAIRS:
        lo = regs[i] & regs[j]
        hi = regs[i] | regs[j]
        regs[i], regs[j] = lo, hi
    return Bitstream(regs[MEDIAN9_OUT], length)


def median_batch(regs: list[np.ndarray]) -> np.ndarray:
    regs = list(regs)
    for i, j in MEDIAN9_PAIRS:
        lo = regs[i] & regs[j]
        regs[j] = regs[i] | regs[j]
        regs[i] = lo
    return regs[MEDIAN9_OUT]


def median9_reference(values) -> float:
    """Sorting oracle for the network."""
    return sorted(values)[4]


# ---------------------------------------------------------------------------
# frame difference segmentation


def frame_diff_eval(cur: Bitstream, prev: Bitstream, theta: float) -> int:
    """Foreground iff the XOR ones count exceeds theta of the length."""
    length = _require_same_length((cur, prev))
    diff = int(np.bitwise_count(cur.words ^ prev.words).sum())
    return int(diff > theta * length)


def frame_batch(cur: np.ndarray, prev: np.ndarray, theta: float, length: int) -> np.ndarray:
    """frame_diff_eval over (n, words) packed rows of ``length``-bit streams."""
    counts = popcount_rows(cur ^ prev)
    return (counts > theta * length).astype(np.float64)


# ---------------------------------------------------------------------------
# Bernstein polynomial machinery for the power-function circuit


def bernstein_basis(x, degree: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    return np.stack(
        [math.comb(degree, k) * x**k * (1.0 - x) ** (degree - k) for k in range(degree + 1)],
        axis=-1,
    )


@dataclass(frozen=True)
class BernsteinPoly:
    degree: int
    coeffs: tuple[float, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient count must be degree + 1")
        if any(not -1e-9 <= c <= 1 + 1e-9 for c in self.coeffs):
            raise ValueError("coefficients must lie in [0, 1] to be generable as probabilities")
        object.__setattr__(self, "coeffs", tuple(float(np.clip(c, 0.0, 1.0)) for c in self.coeffs))

    def __call__(self, x):
        return bernstein_basis(x, self.degree) @ np.asarray(self.coeffs)


def fit_bernstein(target, degree: int, grid_points: int = 1001) -> tuple[BernsteinPoly, float]:
    """Least-squares coefficients on a uniform grid, constrained to [0, 1]
    by clip-and-refit; returns the polynomial and its max fit error."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    grid = np.linspace(0.0, 1.0, grid_points)
    y = np.asarray([target(float(x)) for x in grid], dtype=np.float64)
    if np.any(y < -1e-9) or np.any(y > 1 + 1e-9):
        raise ValueError("target escapes [0, 1]; not generable as a probability")
    basis = bernstein_basis(grid, degree)

    n = degree + 1
    fixed: dict[int, float] = {}
    coeffs = np.zeros(n)
    for _ in range(n + 1):
        free = [j for j in range(n) if j not in fixed]
        residual = y - sum(basis[:, j] * v for j, v in fixed.items()) if fixed else y
        sol, *_ = np.linalg.lstsq(basis[:, free], residual, rcond=None)
        for j, v in zip(free, sol):
            coeffs[j] = v
        for j, v in fixed.items():
            coeffs[j] = v
        clipped = False
        for j in free:
            if coeffs[j] < 0.0:
                fixed[j] = 0.0
                clipped = True
            elif coeffs[j] > 1.0:
                fixed[j] = 1.0
                clipped = True
        if not clipped:
            break
    coeffs = np.clip(coeffs, 0.0, 1.0)
    max_err = float(np.abs(basis @ coeffs - y).max())
    return BernsteinPoly(degree, tuple(coeffs)), max_err


def gamma_eval(x_streams: list[Bitstream], coeff_streams: list[Bitstream]) -> Bitstream:
    """Per cycle the ones count among the x replicas selects one coefficient
    stream's bit; expectation is the Bernstein polynomial at x.

    The replicas must be mutually independent and independent of the
    coefficient streams.
    """
    degree = len(x_streams)
    if len(coeff_streams) != degree + 1:
        raise ValueError(f"need {degree + 1} coefficient streams, got {len(coeff_streams)}")
    length = _require_same_length(list(x_streams) + list(coeff_streams))
    xbits = np.stack([s.to_bits() for s in x_streams])
    cbits = np.stack([s.to_bits() for s in coeff_streams])
    k = xbits.sum(axis=0, dtype=np.intp)
    out = cbits[k, np.arange(length)]
    return Bitstream.from_bits(out)


def gamma_batch_counts(x_words: np.ndarray, coeff_words: np.ndarray) -> np.ndarray:
    """Ones count per row of the gamma_eval output; x_words is (degree, n, words)
    packed replicas, coeff_words (degree+1, n, words) with zero tails.

    A bit-sliced ripple counter (degree.bit_length() bit planes) holds the
    per-cycle ones count among the replicas, so no degree can wrap it.
    """
    degree = x_words.shape[0]
    if coeff_words.shape[0] != degree + 1:
        raise ValueError(f"need {degree + 1} coefficient streams, got {coeff_words.shape[0]}")
    planes = [np.zeros_like(x_words[0]) for _ in range(degree.bit_length())]
    for x in x_words:
        carry = x
        for plane in planes:
            plane ^= carry
            carry = carry & ~plane   # carry out iff the bit was 1 and a carry came in
    inverted = [~plane for plane in planes]
    out = np.zeros_like(coeff_words[0])
    for level, coeff in enumerate(coeff_words):
        sel = coeff.copy()
        for bit, (plane, inv) in enumerate(zip(planes, inverted)):
            sel &= plane if level >> bit & 1 else inv
        out |= sel
    return popcount_rows(out)


# ---------------------------------------------------------------------------
# kernel-density segmentation


def kde_eval(cur: Bitstream, hist: list[Bitstream], delta: float, theta: float) -> int:
    """Foreground iff the box-kernel density over the history is below theta.

    cur must be correlated with every history stream so XOR measures the
    pairwise distance.
    """
    if len(hist) != KDE_HISTORY:
        raise ValueError(f"history must hold {KDE_HISTORY} streams, got {len(hist)}")
    length = _require_same_length([cur] + list(hist))
    matches = 0
    for h in hist:
        dist = int(np.bitwise_count(cur.words ^ h.words).sum())
        matches += dist <= delta * length
    density = matches / len(hist)
    return int(density < theta)


def kde_batch(cur: np.ndarray, hist_iter, delta: float, theta: float, length: int,
              n_history: int = KDE_HISTORY) -> np.ndarray:
    """kde_eval over (n, words) packed rows of ``length``-bit streams."""
    matches = np.zeros(cur.shape[0], dtype=np.int32)
    seen = 0
    for hist in hist_iter:
        dist = popcount_rows(cur ^ hist)
        matches += dist <= delta * length
        seen += 1
    if seen != n_history:
        raise ValueError(f"history must hold {n_history} streams, got {seen}")
    return ((matches / n_history) < theta).astype(np.float64)


# ---------------------------------------------------------------------------
# golden (maximum-possible-accuracy) evaluators


def _pad_edge(data: np.ndarray, top: int, bottom: int, left: int, right: int) -> np.ndarray:
    return np.pad(data, ((top, bottom), (left, right)), mode="edge")


def golden_robert(img: ImageGray) -> ImageGray:
    d = _pad_edge(img.data, 0, 1, 0, 1)
    h, w = img.data.shape
    p00, p01 = d[:h, :w], d[:h, 1:w + 1]
    p10, p11 = d[1:h + 1, :w], d[1:h + 1, 1:w + 1]
    z = 0.5 * (np.abs(p00 - p11) + np.abs(p01 - p10))
    return ImageGray.from_array(z)


def golden_median(img: ImageGray) -> ImageGray:
    d = _pad_edge(img.data, 1, 1, 1, 1)
    h, w = img.data.shape
    stack = np.stack([d[1 + dy:1 + dy + h, 1 + dx:1 + dx + w]
                      for dy in (-1, 0, 1) for dx in (-1, 0, 1)])
    return ImageGray.from_array(np.median(stack, axis=0))


def golden_frame(cur: ImageGray, prev: ImageGray, theta: float) -> ImageGray:
    return ImageGray.from_array((np.abs(cur.data - prev.data) > theta).astype(np.float64))


def golden_gamma(img: ImageGray, exponent: float) -> ImageGray:
    return ImageGray.from_array(img.data ** exponent)


def golden_kde(cur: ImageGray, history, delta: float, theta: float) -> ImageGray:
    if len(history) != KDE_HISTORY:
        raise ValueError(f"history must hold {KDE_HISTORY} frames, got {len(history)}")
    matches = np.zeros_like(cur.data)
    for h in history:
        matches += np.abs(cur.data - h.data) <= delta
    density = matches / len(history)
    return ImageGray.from_array((density < theta).astype(np.float64))


def golden_eval(app: AppKind, inputs: AppInputs, params: AppParams = AppParams()) -> ImageGray:
    """Exact expected-output image for one application."""
    if app is AppKind.ROBERT:
        return golden_robert(inputs.image)
    if app is AppKind.MEDIAN:
        return golden_median(inputs.image)
    if app is AppKind.FRAME:
        if inputs.prev is None:
            raise ValueError("frame difference needs a previous frame")
        return golden_frame(inputs.image, inputs.prev, params.theta)
    if app is AppKind.GAMMA:
        return golden_gamma(inputs.image, params.gamma_exponent)
    if app is AppKind.KDE:
        return golden_kde(inputs.image, inputs.history, params.delta, params.theta)
    raise ValueError(f"unknown app {app}")
