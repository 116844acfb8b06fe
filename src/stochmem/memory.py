"""Behavioral model of the analog memory.

A write and a read each add clamped zero-mean Gaussian discrepancy, drawn
from the NoiseModel's sigmas, to a full-scale value in [0, 1].  The memory
is stateless: a write returns the stored cells and a read takes them back,
so nothing is allocated, addressed or counted here.  The conventional
designs' SRAM is ideal and holds ADC codes unchanged, so it needs no model.
Each cell's noise comes from one 64-bit generator state; the block forms
take cells of any shape and add them into the noise draws.  mem_write and
mem_read are the scalar oracles: they draw through rng.gauss, the scalar
mix64, not through the engine's array mixer in gauss_from_states.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import gauss, gauss_from_states


@dataclass(frozen=True)
class NoiseModel:
    """Read/write discrepancy in full-scale units, clamped to [0, 1]."""

    write_sigma: float = 0.0
    read_sigma: float = 0.0

    def __post_init__(self):
        for name in ("write_sigma", "read_sigma"):
            value = getattr(self, name)
            if not 0 <= value < np.inf:
                raise ValueError(f"noise sigmas must be nonnegative and finite; {name} is {value}")


def mem_write(noise: NoiseModel, value: float, state: int) -> float:
    """Store one value with the write noise of generator state; returns the
    cell content."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"stored value must lie in [0, 1], got {value}")
    return float(np.clip(value + gauss(state, noise.write_sigma), 0.0, 1.0))


def mem_read(noise: NoiseModel, stored: float, state: int) -> float:
    """What the stream generator sees when it reads one cell, with the read
    noise of generator state."""
    return float(np.clip(stored + gauss(state, noise.read_sigma), 0.0, 1.0))


def _noisy_block(values: np.ndarray, noise_states: np.ndarray, sigma: float) -> np.ndarray:
    cells = gauss_from_states(noise_states, sigma)
    cells += values
    return np.clip(cells, 0.0, 1.0, out=cells)


def mem_write_block(noise: NoiseModel, values: np.ndarray,
                    noise_states: np.ndarray) -> np.ndarray:
    """Vectorized mem_write; noise_states supplies one derived generator state per cell."""
    if np.any(values < 0.0) or np.any(values > 1.0):
        raise ValueError("stored values must lie in [0, 1]")
    return _noisy_block(values, noise_states, noise.write_sigma)


def mem_read_block(noise: NoiseModel, stored: np.ndarray,
                   noise_states: np.ndarray) -> np.ndarray:
    """Vectorized mem_read over the cells mem_write_block returned."""
    return _noisy_block(stored, noise_states, noise.read_sigma)
