"""Deterministic per-pixel randomness.

Every random decision in a run derives from a SeedSpec via the SplitMix64
finalizer, so per-(pixel, stream) sources are reproducible across runs and
independent of execution order.  The scalar RandomSource and the vectorized
helpers implement the same integer recurrence and produce identical draws.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

_TWO53_INV = 2.0 ** -53


def mix64(z: int) -> int:
    """SplitMix64 finalizer (public-domain mixing function)."""
    z &= _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def mix64_array(z: np.ndarray) -> np.ndarray:
    return _mix64_inplace(z.astype(np.uint64, copy=True))


def _mix64_inplace(z: np.ndarray) -> np.ndarray:
    """mix64 over a uint64 array, overwriting it; returns it."""
    t = np.empty_like(z)
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


@dataclass(frozen=True)
class SeedSpec:
    """Identity of one random stream: run seed, pixel coordinates, stream id."""

    global_seed: int
    pixel_x: int = 0
    pixel_y: int = 0
    stream_id: int = 0


def derive_state(seed: SeedSpec) -> int:
    """Mix all SeedSpec fields into a 64-bit generator state."""
    h = seed.global_seed & _MASK
    for f in (seed.pixel_x, seed.pixel_y, seed.stream_id):
        h = mix64((h + GOLDEN + f) & _MASK)
    return h


def derive_state_grid(global_seed: int, xs: np.ndarray, ys: np.ndarray, stream_id: int) -> np.ndarray:
    """Vectorized derive_state over pixel coordinate arrays."""
    h = np.full(xs.shape, global_seed & _MASK, dtype=np.uint64)
    for f in (xs.astype(np.uint64), ys.astype(np.uint64), np.uint64(stream_id)):
        h = mix64_array(h + np.uint64(GOLDEN) + f)
    return h


class RandomSource:
    """Single-owner SplitMix64 sequence; never share one across workers."""

    __slots__ = ("state",)

    def __init__(self, state: int):
        self.state = state & _MASK

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & _MASK
        return mix64(self.state)

    def next_f64(self) -> float:
        return (self.next_u64() >> 11) * _TWO53_INV

    def u64_block(self, n: int) -> np.ndarray:
        out = mix64_array(np.uint64(self.state) + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(GOLDEN))
        self.state = (self.state + n * GOLDEN) & _MASK
        return out

    def uniforms(self, n: int) -> np.ndarray:
        return (self.u64_block(n) >> np.uint64(11)) * _TWO53_INV

    def gauss(self, sigma: float = 1.0) -> float:
        """One normal draw via Box-Muller; consumes exactly two u64 steps."""
        a = self.next_u64()
        b = self.next_u64()
        return float(_boxmuller(np.uint64(a), np.uint64(b))) * sigma

    def gauss_block(self, n: int, sigma: float = 1.0) -> np.ndarray:
        raw = self.u64_block(2 * n)
        return _boxmuller(raw[0::2], raw[1::2]) * sigma

    def bernoulli_bits(self, p: float, n: int) -> np.ndarray:
        """n independent Bernoulli(p) bits as a boolean array."""
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability out of range: {p}")
        if p >= 1.0:
            self.state = (self.state + n * GOLDEN) & _MASK
            return np.ones(n, dtype=bool)
        return self.u64_block(n) < bernoulli_threshold_u64(p)


_MAX_THRESHOLD = np.nextafter(2.0**64, 0.0)  # largest double below 2^64


def bernoulli_threshold_u64(p) -> np.ndarray:
    """Map p in [0, 1) to the u64 threshold with P[u < threshold] = p (within 2^-64).

    p >= 1.0 is not representable as a strict compare; callers must force
    those bits to one (see bernoulli_matrix).
    """
    p = np.asarray(p, dtype=np.float64)
    scaled = np.clip(p, 0.0, 1.0) * 2.0**64
    return np.minimum(scaled, _MAX_THRESHOLD).astype(np.uint64)


def bernoulli_matrix(u_block: np.ndarray, p_rows: np.ndarray) -> np.ndarray:
    """Row i of the (n, L) u64 block becomes Bernoulli(p_rows[i]) bits."""
    p_rows = np.asarray(p_rows, dtype=np.float64)
    bits = u_block < bernoulli_threshold_u64(p_rows)[:, None]
    sat = p_rows >= 1.0
    if sat.any():
        bits[sat] = True
    return bits


def _boxmuller(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    u1 = ((a >> np.uint64(11)) + np.uint64(1)) * _TWO53_INV  # (0, 1]
    u2 = (b >> np.uint64(11)) * _TWO53_INV  # [0, 1)
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


def derive_generator(seed: SeedSpec) -> RandomSource:
    """Deterministic pseudo-random source for one (pixel, stream) identity."""
    return RandomSource(derive_state(seed))


def uniform_block_from_states(states: np.ndarray, count: int) -> np.ndarray:
    """(n, count) u64 draws: row i is the sequence RandomSource(states[i]) would emit."""
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    return _mix64_inplace(states[:, None] + steps[None, :])


def gauss_from_states(states: np.ndarray, sigma: float) -> np.ndarray:
    """One N(0, sigma) draw per state; matches RandomSource.gauss step-for-step."""
    if sigma == 0.0:
        return np.zeros(states.shape, dtype=np.float64)
    g = np.uint64(GOLDEN)
    a = mix64_array(states + g)
    b = mix64_array(states + g + g)
    return _boxmuller(a, b) * sigma
