"""Behavioral model of the analog memory.

A write and a read each add clamped zero-mean Gaussian discrepancy, drawn
from the NoiseModel's sigmas, to a full-scale value in [0, 1].  The memory
is stateless: a write returns the stored cells and a read takes them back,
so nothing is allocated, addressed or counted here.  The conventional
designs' SRAM is ideal and holds ADC codes unchanged, so it needs no model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import RandomSource, gauss_from_states


@dataclass(frozen=True)
class NoiseModel:
    """Read/write discrepancy in full-scale units, clamped to [0, 1]."""

    write_sigma: float = 0.0
    read_sigma: float = 0.0

    def __post_init__(self):
        if self.write_sigma < 0 or self.read_sigma < 0:
            raise ValueError("noise sigmas must be nonnegative")


def _clamp(v):
    return np.clip(v, 0.0, 1.0)


def mem_write(noise: NoiseModel, v: float, rng: RandomSource) -> float:
    """Store one value; returns the cell content."""
    if not 0.0 <= v <= 1.0:
        raise ValueError(f"stored value must lie in [0, 1], got {v}")
    return float(_clamp(v + rng.gauss(noise.write_sigma)))


def mem_read(noise: NoiseModel, stored: float, rng: RandomSource) -> float:
    """What the stream generator sees when it reads one cell."""
    return float(_clamp(stored + rng.gauss(noise.read_sigma)))


def mem_write_block(noise: NoiseModel, values: np.ndarray,
                    noise_states: np.ndarray) -> np.ndarray:
    """Vectorized mem_write; noise_states supplies one derived generator state per cell."""
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise ValueError("stored values must lie in [0, 1]")
    return _clamp(values + gauss_from_states(noise_states, noise.write_sigma))


def mem_read_block(noise: NoiseModel, stored: np.ndarray,
                   noise_states: np.ndarray) -> np.ndarray:
    """Vectorized mem_read over the cells mem_write_block returned."""
    return _clamp(stored + gauss_from_states(noise_states, noise.read_sigma))
