"""Stochastic logic primitives and the five benchmark circuits.

Each *_batch circuit evaluates n pixels on packed (n, words) uint64 rows in
the bitstream layout; gamma_eval (on bool bit arrays) and median9_reference
are independent scalar oracles.

Correlation is part of each circuit's contract: streams fed to XOR (absolute
difference) or to the AND/OR compare-exchange network (min/max) must share
one generator, while mux selects and the power-function input replicas must
be independent.

WIRING holds one row per app: its synthetic input kind, operand slots, packed
circuit and golden form (golden_eval: the exact floating-point output, its
maximum-possible accuracy, over the operand planes the streams encode).
stream_plan gives its stream sources and their generator groups, and operand
slot s has memory-noise ids WRITE_NOISE_BASE + s and READ_NOISE_BASE + s.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitstream import popcount_rows
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


MAX_BERNSTEIN_DEGREE = 16


@dataclass(frozen=True)
class AppParams:
    theta: float = 0.1
    delta: float = 0.1
    gamma_exponent: float = 0.45
    bernstein_degree: int = 6

    def __post_init__(self):
        # theta and delta are fractions of a stream or of the history; outside
        # [0, 1] frame and kde give a constant image
        for name in ("theta", "delta"):
            value = getattr(self, name)
            if not 0 <= value <= 1:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        if not 0 <= self.gamma_exponent < math.inf:
            raise ValueError(f"gamma_exponent must be nonnegative and finite, "
                             f"got {self.gamma_exponent}")
        if not 1 <= self.bernstein_degree <= MAX_BERNSTEIN_DEGREE:
            raise ValueError(f"bernstein_degree must be at most {MAX_BERNSTEIN_DEGREE} (gamma "
                             f"replica streams) and at least 1, got {self.bernstein_degree}")


# ---------------------------------------------------------------------------
# edge detection (two XORs into a mux)


def robert_batch(b00, b01, b10, b11, bsel) -> np.ndarray:
    """Cross-difference edge magnitude 0.5*(|p00-p11| + |p01-p10|); zero tails
    stay zero.

    (p00, p11) and (p01, p10) must each share a generator; sel carries 0.5
    and must be independent of the pixel streams.
    """
    return ((b00 ^ b11) & bsel) | ((b01 ^ b10) & ~bsel)


# ---------------------------------------------------------------------------
# 3x3 median (19 compare-exchange AND/OR pairs; minimal 9-input network)

MEDIAN9_PAIRS = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8),
    (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4),
    (4, 2),
)
MEDIAN9_OUT = 4


def median_batch(regs: list[np.ndarray]) -> np.ndarray:
    """Median of nine mutually correlated operands (AND=min, OR=max)."""
    regs = list(regs)
    if len(regs) != 9:
        raise ValueError(f"median filter takes 9 streams, got {len(regs)}")
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


def frame_batch(cur: np.ndarray, prev: np.ndarray, theta: float, length: int) -> np.ndarray:
    """Foreground (1.0) iff the XOR ones count of the correlated ``length``-bit
    streams exceeds theta of the length."""
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
    """Least-squares coefficients on a uniform grid, bounded to [0, 1], by the
    active-set method of Lawson & Hanson ("Solving least squares problems",
    1974); returns the polynomial and its max fit error."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    grid = np.linspace(0.0, 1.0, grid_points)
    y = np.asarray([target(float(x)) for x in grid], dtype=np.float64)
    if np.any(y < -1e-9) or np.any(y > 1 + 1e-9):
        raise ValueError("target escapes [0, 1]; not generable as a probability")
    basis = bernstein_basis(grid, degree)

    n = degree + 1
    fixed = dict.fromkeys(range(n), 0.0)   # coefficient held at a bound -> the bound
    coeffs = np.zeros(n)

    def refit() -> tuple[list[int], np.ndarray]:
        free = [j for j in range(n) if j not in fixed]
        residual = y - sum(basis[:, j] * v for j, v in fixed.items())
        out = coeffs.copy()
        out[free] = np.linalg.lstsq(basis[:, free], residual, rcond=None)[0]
        return [j for j in free if not 0.0 <= out[j] <= 1.0], out

    # gradients below tol are rounding noise; freeing on them could cycle
    tol = 1e-13 * np.abs(basis.T @ y).max()
    while True:
        grad = basis.T @ (basis @ coeffs - y)
        inward = [j for j, v in fixed.items() if abs(grad[j]) > tol and (grad[j] < 0) == (v == 0.0)]
        if not inward:
            break
        del fixed[max(inward, key=lambda j: abs(grad[j]))]
        clipped, goal = refit()
        while clipped:
            # walk towards the refit until a coefficient meets its bound; hold it there
            steps = {j: (float(goal[j] > 1.0) - coeffs[j]) / (goal[j] - coeffs[j])
                     for j in clipped}
            j = min(steps, key=steps.get)
            coeffs = coeffs + steps[j] * (goal - coeffs)
            coeffs[j] = fixed[j] = float(goal[j] > 1.0)
            clipped, goal = refit()
        coeffs = goal
    coeffs = np.clip(coeffs, 0.0, 1.0)
    max_err = float(np.abs(basis @ coeffs - y).max())
    return BernsteinPoly(degree, tuple(coeffs)), max_err


def gamma_eval(x_bits, coeff_bits) -> np.ndarray:
    """Output bits from (degree, L) replica and (degree+1, L) coefficient bits:
    per cycle the ones count among the x replicas selects one coefficient
    stream's bit, so the expectation is the Bernstein polynomial at x.  The
    replicas must be mutually independent and independent of the coefficients.
    """
    if len(coeff_bits) != len(x_bits) + 1:
        raise ValueError(f"need {len(x_bits) + 1} coefficient streams, got {len(coeff_bits)}")
    k = np.sum(x_bits, axis=0, dtype=np.intp)
    return np.asarray(coeff_bits)[k, np.arange(k.size)]


def gamma_batch_counts(x_words: np.ndarray, coeff_words: np.ndarray) -> np.ndarray:
    """Ones count per row of the gamma_eval output (and under its contract);
    x_words is (degree, n, words) packed replicas, coeff_words (degree+1, n,
    words) with zero tails.

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


def kde_batch(cur: np.ndarray, history, delta: float, theta: float, length: int) -> np.ndarray:
    """Foreground (1.0) iff the box-kernel density over the KDE_HISTORY history
    rows, each matching when its XOR distance to cur is at most delta of the
    length, is below theta.  history is a sequence of packed stream matrices.

    cur must be correlated with every history stream so XOR measures the
    pairwise distance.
    """
    if len(history) != KDE_HISTORY:
        raise ValueError(f"history must hold {KDE_HISTORY} streams, got {len(history)}")
    matches = np.zeros(cur.shape[0], dtype=np.int32)
    for hist in history:
        matches += popcount_rows(cur ^ hist) <= delta * length
    return ((matches / KDE_HISTORY) < theta).astype(np.float64)


# ---------------------------------------------------------------------------
# golden (maximum-possible-accuracy) output

def golden_eval(app: AppKind, planes: np.ndarray, params: AppParams = AppParams()) -> ImageGray:
    """Exact expected-output image of one application over its operand planes
    (slot, y, x), the values its streams encode."""
    if len(planes) != WIRING[app].slots:
        raise ValueError(f"{app.value} reads {WIRING[app].slots} operand planes, "
                         f"got {len(planes)}")
    return ImageGray(WIRING[app].golden(planes, params))


def _kde_golden(planes: np.ndarray, params: AppParams) -> np.ndarray:
    matches = np.zeros_like(planes[0])
    for hist in planes[1:]:
        matches += np.abs(planes[0] - hist) <= params.delta
    return (matches / KDE_HISTORY < params.theta).astype(np.float64)


# ---------------------------------------------------------------------------
# per-app stream wiring


@dataclass(frozen=True)
class Wiring:
    """One app: its synthetic input kind; logic(streams, params, length), the
    per-pixel output of the packed (source, pixel, words) streams that
    stream_plan wires, which looks its circuits up in this module when called;
    golden(planes, params), the exact output over its operand planes; and its
    operand slots: (dy, dx) window offsets into the current frame, else the
    current frame and the frames - 1 before it, oldest first."""
    synthetic: str
    logic: Callable[[np.ndarray, AppParams, int], np.ndarray]
    golden: Callable[[np.ndarray, AppParams], np.ndarray]
    window: tuple[tuple[int, int], ...] = ()
    frames: int = 1

    @property
    def slots(self) -> int:
        return len(self.window) or self.frames


WIRING = {
    AppKind.ROBERT: Wiring(
        "scene", lambda s, p, length: popcount_rows(robert_batch(*s)) / length,
        lambda x, p: 0.5 * (np.abs(x[0] - x[3]) + np.abs(x[1] - x[2])),
        window=((0, 0), (0, 1), (1, 0), (1, 1))),
    AppKind.MEDIAN: Wiring(
        "salt-pepper", lambda s, p, length: popcount_rows(median_batch(s)) / length,
        lambda x, p: np.median(x, axis=0),
        window=tuple((dy, dx) for dy in (-1, 0, 1) for dx in (-1, 0, 1))),
    AppKind.FRAME: Wiring(
        "video", lambda s, p, length: frame_batch(s[0], s[1], p.theta, length),
        lambda x, p: (np.abs(x[0] - x[1]) > p.theta).astype(np.float64), frames=2),
    AppKind.GAMMA: Wiring(
        "scene", lambda s, p, length: gamma_batch_counts(s[:p.bernstein_degree],
                                                         s[p.bernstein_degree:]) / length,
        lambda x, p: x[0] ** p.gamma_exponent),
    AppKind.KDE: Wiring(
        "video", lambda s, p, length: kde_batch(s[0], s[1:], p.delta, p.theta, length),
        _kde_golden, frames=1 + KDE_HISTORY),
}

# stream groups: operands occupy 0..7 and gamma replica k group k, so the
# coefficient group comes after the largest degree
GROUP_SELECT = 8
GROUP_COEFF = MAX_BERNSTEIN_DEGREE
WRITE_NOISE_BASE = 64
READ_NOISE_BASE = 96


@dataclass(frozen=True)
class StreamPlan:
    # a source is ("op", slot), the operand plane at index slot, or ("const",
    # value); sources that must be correlated share a group
    sources: tuple
    groups: tuple[int, ...]


@lru_cache(maxsize=16)
def stream_plan(app: AppKind, params: AppParams) -> StreamPlan:
    if app is AppKind.ROBERT:
        # cross pairs (p00, p11) and (p01, p10) are correlated; select is not
        return StreamPlan((("op", 0), ("op", 1), ("op", 2), ("op", 3), ("const", 0.5)),
                          (0, 1, 1, 0, GROUP_SELECT))
    if app is AppKind.GAMMA:
        # the x replicas must be mutually independent; the coefficient
        # streams may share one generator because each cycle samples
        # exactly one of them
        deg = params.bernstein_degree
        poly, _ = fit_bernstein(lambda x: x ** params.gamma_exponent, deg)
        return StreamPlan((("op", 0),) * deg + tuple(("const", c) for c in poly.coeffs),
                          tuple(range(deg)) + (GROUP_COEFF,) * (deg + 1))
    # median, frame and kde compare operands with each other: one generator
    n = WIRING[app].slots
    return StreamPlan(tuple(("op", j) for j in range(n)), (0,) * n)
