"""Behavioral storage models.

Two kinds: an ideal digital memory that holds ADC codes and returns them
unchanged, and an analog memory whose writes and reads each add clamped
zero-mean Gaussian discrepancy to a full-scale value in [0, 1].  A memory
is a stateless description: a write returns the stored cells and a read
takes them back, so nothing is allocated, addressed or counted here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .converters import ADC_BITS
from .rng import RandomSource, gauss_from_states


@dataclass(frozen=True)
class NoiseModel:
    """Read/write discrepancy in full-scale units, clamped to [0, 1]."""

    write_sigma: float = 0.0
    read_sigma: float = 0.0

    def __post_init__(self):
        if self.write_sigma < 0 or self.read_sigma < 0:
            raise ValueError("noise sigmas must be nonnegative")


class MemoryKind(enum.Enum):
    DIGITAL_IDEAL = "digital"
    ANALOG_NOISY = "analog"


@dataclass(frozen=True)
class MemoryInstance:
    kind: MemoryKind
    noise: NoiseModel = NoiseModel()

    @classmethod
    def digital(cls) -> "MemoryInstance":
        return cls(MemoryKind.DIGITAL_IDEAL)

    @classmethod
    def analog(cls, noise: NoiseModel) -> "MemoryInstance":
        return cls(MemoryKind.ANALOG_NOISY, noise)

    @property
    def full_scale(self) -> float:
        """Largest storable value: the top ADC code, or 1.0 for analog cells."""
        return (1 << ADC_BITS) - 1 if self.kind is MemoryKind.DIGITAL_IDEAL else 1.0


def _clamp(v):
    return np.clip(v, 0.0, 1.0)


def mem_write(mem: MemoryInstance, v: float, rng: RandomSource | None = None) -> float:
    """Store one value; returns the cell content."""
    if not 0.0 <= v <= mem.full_scale:
        raise ValueError(f"stored value must lie in [0, {mem.full_scale}], got {v}")
    if mem.kind is MemoryKind.DIGITAL_IDEAL:
        return v
    return float(_clamp(v + rng.gauss(mem.noise.write_sigma)))


def mem_read(mem: MemoryInstance, stored: float, rng: RandomSource | None = None) -> float:
    """What the stream generator sees when it reads one cell."""
    if mem.kind is MemoryKind.DIGITAL_IDEAL:
        return stored
    return float(_clamp(stored + rng.gauss(mem.noise.read_sigma)))


def mem_write_block(mem: MemoryInstance, values: np.ndarray,
                    noise_states: np.ndarray | None = None) -> np.ndarray:
    """Vectorized mem_write; noise_states supplies one derived generator state per cell."""
    if np.any(values < 0.0) or np.any(values > mem.full_scale):
        raise ValueError(f"stored values must lie in [0, {mem.full_scale}]")
    if mem.kind is MemoryKind.DIGITAL_IDEAL:
        return values
    return _clamp(values + gauss_from_states(noise_states, mem.noise.write_sigma))


def mem_read_block(mem: MemoryInstance, stored: np.ndarray,
                   noise_states: np.ndarray | None = None) -> np.ndarray:
    """Vectorized mem_read over the cells mem_write_block returned."""
    if mem.kind is MemoryKind.DIGITAL_IDEAL:
        return stored
    return _clamp(stored + gauss_from_states(noise_states, mem.noise.read_sigma))
