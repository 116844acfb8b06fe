"""Maximal-length Fibonacci LFSRs.

The default generator is the 10-bit register with feedback taps {10, 7};
tap positions are 1-based, tap k reading bit k-1 of the state.  Maximality
is verified at construction by walking the state cycle through 1 (the one
walk per spec, kept as its LfsrCycle) instead of trusting a polynomial table.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

DEFAULT_WIDTH = 10
DEFAULT_TAPS = frozenset({10, 7})


def _step(width: int, taps: frozenset[int], state: int) -> int:
    fb = 0
    for t in taps:
        fb ^= (state >> (t - 1)) & 1
    return ((state << 1) & ((1 << width) - 1)) | fb


@dataclass(frozen=True)
class LfsrSpec:
    width: int = DEFAULT_WIDTH
    taps: frozenset[int] = DEFAULT_TAPS

    def __post_init__(self):
        object.__setattr__(self, "taps", frozenset(self.taps))
        if not 2 <= self.width <= 16:
            raise ValueError(f"LFSR width must be in 2..16, got {self.width}")
        if not self.taps or any(not 1 <= t <= self.width for t in self.taps):
            raise ValueError(f"taps must lie in 1..{self.width}")
        if LfsrCycle.for_spec(self).ring.size != self.period:
            raise ValueError(f"taps {sorted(self.taps)} are not maximal for width {self.width}")

    @property
    def period(self) -> int:
        return (1 << self.width) - 1


@dataclass(frozen=True)
class LfsrState:
    spec: LfsrSpec
    state: int

    def __post_init__(self):
        if not 1 <= self.state <= self.spec.period:
            raise ValueError(
                f"LFSR state must be nonzero and fit {self.spec.width} bits, got {self.state}"
            )


def lfsr_next(st: LfsrState) -> tuple[int, LfsrState]:
    """Emit the current state as the random value, then advance one step."""
    nxt = _step(st.spec.width, st.spec.taps, st.state)
    return st.state, LfsrState(st.spec, nxt)


def seed_state(spec: LfsrSpec, raw: int) -> LfsrState:
    """Fold an arbitrary 64-bit value onto the nonzero state range."""
    return LfsrState(spec, raw % spec.period + 1)


class LfsrCycle:
    """Precomputed full state cycle for vectorized sequence extraction.

    ring holds the states from 1 until the walk returns to 1; a walk that has
    not returned after one period stops one state later, so the ring is
    exactly one period long only for maximal taps."""

    def __init__(self, spec: LfsrSpec):
        self.spec = spec
        ring = [1]
        s = _step(spec.width, spec.taps, 1)
        while s != 1 and len(ring) <= spec.period:
            ring.append(s)
            s = _step(spec.width, spec.taps, s)
        self.ring = np.array(ring, dtype=np.uint16)
        self.position = np.zeros(spec.period + 1, dtype=np.uint16)
        self.position[self.ring] = np.arange(self.ring.size)

    @classmethod
    @functools.cache
    def for_spec(cls, spec: LfsrSpec) -> "LfsrCycle":
        return cls(spec)

    def sequence_block(self, start_positions: np.ndarray, count: int) -> np.ndarray:
        """(n, count) matrix of emitted values, row i starting at ring position i."""
        idx = (start_positions.astype(np.int64)[:, None] + np.arange(count, dtype=np.int64)) % self.spec.period
        return self.ring[idx]
