"""Deterministic per-pixel randomness.

Every random source is addressed by one 64-bit SplitMix64 state, derived from
(global seed, pixel x, pixel y, stream id) by the SplitMix64 finalizer, so
per-(pixel, stream) sources are reproducible across runs and independent of
execution order.  Draw j of state s is mix64(s + (j + 1) * GOLDEN).  The
engine reads states in arrays: the (seed, x, y) prefixes of a block's pixels
(pixel_states) take each stream id or id column last (stream_states), and
uniform_block_from_states, gauss_from_states and bernoulli_threshold_u64 draw
from them.  derive_state, uniforms and the scalar gauss address one state
each, for the inputs and the scalar oracles; they go through the scalar mix64
and so share no array arithmetic with the engine.
"""

from __future__ import annotations

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


def _mix64_inplace(z: np.ndarray, tmp: np.ndarray | None = None) -> np.ndarray:
    """mix64 over a uint64 array, overwriting it; returns it.  ``tmp``, if
    given, is a uint64 work array of z's shape."""
    t = np.empty_like(z) if tmp is None else tmp
    np.right_shift(z, np.uint64(30), out=t)
    z ^= t
    z *= np.uint64(_MIX1)
    np.right_shift(z, np.uint64(27), out=t)
    z ^= t
    z *= np.uint64(_MIX2)
    np.right_shift(z, np.uint64(31), out=t)
    z ^= t
    return z


def derive_state(global_seed: int, x: int = 0, y: int = 0, stream_id: int = 0) -> int:
    """The 64-bit generator state of one (seed, pixel, stream) identity."""
    h = global_seed & _MASK
    for f in (x, y, stream_id):
        h = mix64((h + GOLDEN + f) & _MASK)
    return h


def pixel_states(global_seed: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """The (seed, x, y) prefix of derive_state over pixel coordinate arrays."""
    h = np.full(xs.shape, global_seed & _MASK, dtype=np.uint64)
    for f in (xs, ys):
        h += np.uint64(GOLDEN)
        h += f.astype(np.uint64, copy=False)
        _mix64_inplace(h)
    return h


def stream_states(pixels: np.ndarray, stream_id) -> np.ndarray:
    """States of stream_id at pixel_states prefixes; an id column (k, 1) gives k rows."""
    h = pixels + np.asarray(stream_id, dtype=np.uint64)
    h += np.uint64(GOLDEN)
    return _mix64_inplace(h)


def derive_state_grid(global_seed: int, xs: np.ndarray, ys: np.ndarray, stream_id: int) -> np.ndarray:
    """Vectorized derive_state over pixel coordinate arrays."""
    return stream_states(pixel_states(global_seed, xs, ys), stream_id)


def uniforms(state: int, count: int) -> np.ndarray:
    """The first count draws of state as doubles in [0, 1), 53 bits each."""
    draws = uniform_block_from_states(np.array([state], dtype=np.uint64), count)[0]
    return (draws >> np.uint64(11)) * _TWO53_INV


def gauss(state: int, sigma: float) -> float:
    """One N(0, sigma) draw from state's first two draws, by Box-Muller."""
    u1 = ((mix64(state + GOLDEN) >> 11) + 1) * _TWO53_INV  # (0, 1]
    u2 = (mix64(state + 2 * GOLDEN) >> 11) * _TWO53_INV  # [0, 1)
    return float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)) * sigma


_MAX_THRESHOLD = np.nextafter(2.0**64, 0.0)  # largest double below 2^64


def bernoulli_threshold_u64(p) -> np.ndarray:
    """Map p in [0, 1) to the u64 threshold with P[u < threshold] = p (within 2^-64).

    p >= 1.0 is not representable as a strict compare; callers must force
    those bits to one, as harness._asc_streams does.  The scalar oracle
    converters.asc_generate states the threshold as int(p * 2.0**64) itself.
    """
    p = np.asarray(p, dtype=np.float64)
    scaled = np.clip(p, 0.0, 1.0) * 2.0**64
    return np.minimum(scaled, _MAX_THRESHOLD).astype(np.uint64)


def uniform_block_from_states(states: np.ndarray, count: int, into: np.ndarray | None = None,
                              tmp: np.ndarray | None = None) -> np.ndarray:
    """(n, count) u64 draws: row i holds draws 0..count-1 of states[i].

    ``into`` and ``tmp``, if given, are (n, count) uint64 arrays that receive
    the draws and serve as the mixer's work array; ``into`` is returned.
    """
    steps = np.arange(1, count + 1, dtype=np.uint64) * np.uint64(GOLDEN)
    if into is None:
        return _mix64_inplace(states[:, None] + steps[None, :])
    np.add(states[:, None], steps[None, :], out=into)
    return _mix64_inplace(into, tmp)


def gauss_from_states(states: np.ndarray, sigma: float) -> np.ndarray:
    """One N(0, sigma) draw per state; matches gauss(state, sigma) for each."""
    if sigma == 0.0:
        return np.zeros(states.shape, dtype=np.float64)
    a = states + np.uint64(GOLDEN)
    b = a + np.uint64(GOLDEN)
    tmp = np.empty_like(a)
    _mix64_inplace(a, tmp)
    _mix64_inplace(b, tmp)
    a >>= np.uint64(11)
    a += np.uint64(1)
    b >>= np.uint64(11)
    u1 = np.multiply(a, _TWO53_INV, out=tmp.view(np.float64))
    u2 = np.multiply(b, _TWO53_INV, out=a.view(np.float64))
    np.sqrt(np.multiply(-2.0, np.log(u1, out=u1), out=u1), out=u1)
    u1 *= np.cos(np.multiply(2.0 * np.pi, u2, out=u2), out=u2)
    u1 *= sigma
    return u1
