"""Stochastic logic primitives and the five benchmark circuits.

Correlation is part of each circuit's contract: streams fed to XOR (absolute
difference) or to the AND/OR compare-exchange network (min/max) must share
one generator, while mux selects and the power-function input replicas must
be independent.  golden_eval gives each circuit's exact floating-point output,
its maximum-possible accuracy, over the operand planes the streams encode, in
the harness stream plan's slot order (OPERAND_SLOTS).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .bitstream import Bitstream, popcount_rows
from .images import ImageGray

KDE_HISTORY = 32


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


# ---------------------------------------------------------------------------
# single-stream forms: each *_eval is one row of its packed *_batch circuit


def _require_same_length(streams) -> int:
    lengths = {s.length for s in streams}
    if len(lengths) != 1:
        raise ValueError(f"stream length mismatch: {sorted(lengths)}")
    return lengths.pop()


def _row(stream: Bitstream) -> np.ndarray:
    return stream.words[None, :]


# ---------------------------------------------------------------------------
# edge detection (two XORs into a mux)


def robert_eval(p00: Bitstream, p01: Bitstream, p10: Bitstream, p11: Bitstream,
                sel: Bitstream) -> Bitstream:
    """Cross-difference edge magnitude 0.5*(|p00-p11| + |p01-p10|).

    (p00, p11) and (p01, p10) must each share a generator; sel carries 0.5
    and must be independent of the pixel streams.
    """
    length = _require_same_length((p00, p01, p10, p11, sel))
    return Bitstream(robert_batch(*map(_row, (p00, p01, p10, p11, sel)))[0], length)


def robert_batch(b00, b01, b10, b11, bsel) -> np.ndarray:
    """robert_eval over (n, words) packed rows; zero tails stay zero."""
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
    return Bitstream(median_batch([_row(s) for s in streams])[0], length)


def median_batch(regs: list[np.ndarray]) -> np.ndarray:
    """median_eval over nine (n, words) packed operands."""
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
    return int(frame_batch(_row(cur), _row(prev), theta, length)[0])


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
    length = _require_same_length([cur] + list(hist))
    return int(kde_batch(_row(cur), [_row(h) for h in hist], delta, theta, length)[0])


def kde_batch(cur: np.ndarray, hist_iter, delta: float, theta: float, length: int) -> np.ndarray:
    """kde_eval over (n, words) packed rows of ``length``-bit streams."""
    matches = np.zeros(cur.shape[0], dtype=np.int32)
    seen = 0
    for hist in hist_iter:
        dist = popcount_rows(cur ^ hist)
        matches += dist <= delta * length
        seen += 1
    if seen != KDE_HISTORY:
        raise ValueError(f"history must hold {KDE_HISTORY} streams, got {seen}")
    return ((matches / KDE_HISTORY) < theta).astype(np.float64)


# ---------------------------------------------------------------------------
# golden (maximum-possible-accuracy) output

# operand planes each app reads, in stream-plan slot order: robert the 2x2
# window (p00, p01, p10, p11), median the 3x3 window row by row, frame the
# current and previous frames, gamma the pixel, kde the current frame and then
# the history
OPERAND_SLOTS = {AppKind.ROBERT: 4, AppKind.MEDIAN: 9, AppKind.FRAME: 2, AppKind.GAMMA: 1,
                 AppKind.KDE: 1 + KDE_HISTORY}


def golden_eval(app: AppKind, planes: np.ndarray, params: AppParams = AppParams()) -> ImageGray:
    """Exact expected-output image of one application over its operand planes
    (slot, y, x), the values its streams encode."""
    if len(planes) != OPERAND_SLOTS[app]:
        raise ValueError(f"{app.value} reads {OPERAND_SLOTS[app]} operand planes, "
                         f"got {len(planes)}")
    if app is AppKind.ROBERT:
        p00, p01, p10, p11 = planes
        out = 0.5 * (np.abs(p00 - p11) + np.abs(p01 - p10))
    elif app is AppKind.MEDIAN:
        out = np.median(planes, axis=0)
    elif app is AppKind.FRAME:
        out = (np.abs(planes[0] - planes[1]) > params.theta).astype(np.float64)
    elif app is AppKind.GAMMA:
        out = planes[0] ** params.gamma_exponent
    else:
        matches = np.zeros_like(planes[0])
        for hist in planes[1:]:
            matches += np.abs(planes[0] - hist) <= params.delta
        out = (matches / KDE_HISTORY < params.theta).astype(np.float64)
    return ImageGray.from_array(out)
