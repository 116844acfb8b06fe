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
maximum-possible accuracy, over the operand values the streams encode, as an
array of the operands' trailing shape; the harness passes a pixel block's
(slot, pixel) operand columns).
stream_plan gives its sources (slots, then constants) and generator groups;
slot s has memory-noise ids WRITE_NOISE_BASE + s and READ_NOISE_BASE + s.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .bitstream import integer, popcount_rows

KDE_HISTORY = 32
# history rows kde_batch compares at once; it divides KDE_HISTORY
_KDE_CHUNK = 8


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
        object.__setattr__(self, "bernstein_degree",
                           integer("bernstein_degree", self.bernstein_degree))
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
# stream words per chunk of the median network, so that its working streams
# hold a chunk of the operands, not a second copy of them
_MEDIAN_CHUNK = 4096


def median_batch(regs: list[np.ndarray]) -> np.ndarray:
    """Median of nine mutually correlated operands (AND=min, OR=max), over
    chunks of _MEDIAN_CHUNK of their words."""
    if len(regs) != 9:
        raise ValueError(f"median filter takes 9 streams, got {len(regs)}")
    flat = [np.reshape(r, -1) for r in regs]
    out = np.empty_like(flat[0])
    for c in range(0, out.size, _MEDIAN_CHUNK):
        part = [r[c:c + _MEDIAN_CHUNK] for r in flat]
        for i, j in MEDIAN9_PAIRS:
            lo = part[i] & part[j]
            part[j] = part[i] | part[j]
            part[i] = lo
        out[c:c + _MEDIAN_CHUNK] = part[MEDIAN9_OUT]
    return out.reshape(np.shape(regs[0]))


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


def fit_bernstein(target, degree: int) -> tuple[tuple[float, ...], float]:
    """Least-squares Bernstein coefficients of target on 1001 uniform points of
    [0, 1], bounded to [0, 1] so that each is generable as a probability, by
    the active-set method of Lawson & Hanson ("Solving least squares
    problems", 1974); returns the degree + 1 coefficients and the max fit
    error."""
    if degree < 1:
        raise ValueError("degree must be at least 1")
    grid = np.linspace(0.0, 1.0, 1001)
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
    return tuple(coeffs.tolist()), max_err


@lru_cache(maxsize=16)
def gamma_fit(params: AppParams) -> tuple[tuple[float, ...], float]:
    """The gamma circuit's fit: fit_bernstein of x ** gamma_exponent at
    bernstein_degree, its coefficients and max fit error."""
    return fit_bernstein(lambda x: x ** params.gamma_exponent, params.bernstein_degree)


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
    pairwise distance.  The distances are taken _KDE_CHUNK history rows at a
    time in one reused XOR buffer: a few numpy calls a chunk, not a row, and
    no second copy of the history.
    """
    if len(history) != KDE_HISTORY:
        raise ValueError(f"history must hold {KDE_HISTORY} streams, got {len(history)}")
    matches = np.zeros(cur.shape[0], dtype=np.int64)
    xor = np.empty((_KDE_CHUNK,) + cur.shape, dtype=cur.dtype)
    for k in range(0, KDE_HISTORY, _KDE_CHUNK):
        np.bitwise_xor(history[k:k + _KDE_CHUNK], cur, out=xor)
        distances = np.bitwise_count(xor).sum(axis=-1, dtype=np.int64)
        matches += (distances <= delta * length).sum(axis=0)
    return ((matches / KDE_HISTORY) < theta).astype(np.float64)


# ---------------------------------------------------------------------------
# golden (maximum-possible-accuracy) output

def golden_eval(app: AppKind, operands: np.ndarray, params: AppParams = AppParams()) -> np.ndarray:
    """Exact expected output of one application over its operand values
    (slot, ...), the values its streams encode: an array of the operands'
    trailing shape, such as (pixel,) columns or (y, x) planes."""
    if len(operands) != WIRING[app].slots:
        raise ValueError(f"{app.value} reads {WIRING[app].slots} operand slots, "
                         f"got {len(operands)}")
    return WIRING[app].golden(operands, params)


def _kde_golden(operands: np.ndarray, params: AppParams) -> np.ndarray:
    matches = np.zeros_like(operands[0])
    for hist in operands[1:]:
        matches += np.abs(operands[0] - hist) <= params.delta
    return (matches / KDE_HISTORY < params.theta).astype(np.float64)


# ---------------------------------------------------------------------------
# per-app stream wiring


@dataclass(frozen=True)
class Wiring:
    """One app: its synthetic input kind; logic(streams, params, length), the
    per-pixel output of the packed (source, pixel, words) streams that
    stream_plan wires, which looks its circuits up in this module when called;
    golden(operands, params), the exact output over its (slot, ...) operand
    values; and its operand slots: (dy, dx) window offsets into the current
    frame, else the current frame and the frames - 1 before it, oldest
    first."""
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
        # element 4 of the nine sorted values, copied out of the partitioned
        # nine so that they can be freed; np.median would import numpy.ma
        lambda x, p: np.partition(x, 4, axis=0)[4].copy(),
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
    # the sources are the operands of slots, then the constants, in
    # that order; sources that must be correlated share a group
    slots: tuple[int, ...]
    consts: tuple[float, ...]
    groups: tuple[int, ...]


@lru_cache(maxsize=16)
def stream_plan(app: AppKind, params: AppParams) -> StreamPlan:
    if app is AppKind.ROBERT:
        # cross pairs (p00, p11) and (p01, p10) are correlated; select is not
        return StreamPlan((0, 1, 2, 3), (0.5,), (0, 1, 1, 0, GROUP_SELECT))
    if app is AppKind.GAMMA:
        # the x replicas must be mutually independent; the coefficient
        # streams may share one generator because each cycle samples
        # exactly one of them
        deg = params.bernstein_degree
        return StreamPlan((0,) * deg, gamma_fit(params)[0],
                          tuple(range(deg)) + (GROUP_COEFF,) * (deg + 1))
    # median, frame and kde compare operands with each other: one generator
    n = WIRING[app].slots
    return StreamPlan(tuple(range(n)), (), (0,) * n)
