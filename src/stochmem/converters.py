"""Data converters between analog, digital, and stochastic representations.

Analog values are floats on the normalized full scale [0, 1].  The widths
are fixed: the ADC makes ADC_BITS codes, the requantizer re-expresses them
at DAC_BITS, and the DAC reads DAC_BITS codes.  Each takes a scalar or an
array and returns the same shape.
The comparator-based digital-to-stochastic converter (DSC) emits a one
when the LFSR value is <= the stored code, so code 2^width-1 saturates
the stream and a full-period run carries exactly ``code`` ones.
dsc_generate and asc_generate are the scalar generator oracles; each returns
one stream as a 1-D bool array of ``length`` bits from one 64-bit generator
state.  dsc_generate walks the LFSR step by step (lfsr.lfsr_values), not
through the engine's ring windows and tiles.  asc_generate states the
stochastic number generator's compare, bit = 1 iff draw < p * 2^64, with one
exact integer threshold, so it is independent of the engine's
bernoulli_threshold_u64 and of its tiles, packing and p >= 1 fix-up; it
shares only the SplitMix64 draws (rng.uniform_block_from_states).
"""

from __future__ import annotations

import numpy as np

from .lfsr import LfsrSpec, lfsr_values
from .rng import uniform_block_from_states

ADC_BITS = 10
DAC_BITS = 8
_ADC_TOP = (1 << ADC_BITS) - 1
_DAC_TOP = (1 << DAC_BITS) - 1


def check_range(x, top, what: str) -> None:
    lo, hi = np.min(x), np.max(x)
    if not (lo >= 0 and hi <= top):  # also rejects NaN
        got = x if np.ndim(x) == 0 else f"values in [{lo}, {hi}]"
        raise ValueError(f"{what} must lie in [0, {top}], got {got}")


def _unwrap(a: np.ndarray):
    """A Python int or float for 0-d results, so scalar calls stay scalar."""
    return a.item() if a.ndim == 0 else a


def adc_quantize(x):
    """Round-half-up ADC_BITS quantization of full-scale analog values."""
    check_range(x, 1, "ADC input")
    return _unwrap(np.floor(np.asarray(x, dtype=np.float64) * _ADC_TOP + 0.5)
                   .astype(np.int64))


def dac_dequantize(code):
    """Full-scale value of DAC_BITS codes."""
    check_range(code, _DAC_TOP, f"{DAC_BITS}-bit DAC code")
    return _unwrap(np.asarray(code) / _DAC_TOP)


def requantize(code):
    """ADC codes re-expressed at the DAC width (round-half-up)."""
    check_range(code, _ADC_TOP, f"{ADC_BITS}-bit code")
    return _unwrap(np.floor(np.asarray(code) / _ADC_TOP * _DAC_TOP + 0.5)
                   .astype(np.int64))


def dsc_generate(code: int, length: int, raw: int, spec: LfsrSpec = LfsrSpec()) -> np.ndarray:
    """Comparator stream: bit i is one iff the i-th LFSR value is <= code; the
    register is seeded from the 64-bit value raw (lfsr.lfsr_values)."""
    if not 0 <= code <= spec.period:
        raise ValueError(f"code {code} out of range for width {spec.width}")
    if length < 1:
        raise ValueError("stream length must be positive")
    return np.array(lfsr_values(spec, raw, length)) <= code


def asc_generate(p: float, length: int, state: int) -> np.ndarray:
    """Bernoulli sampling stream: bit j is one iff draw j of state is below
    int(p * 2^64), so the ones count is Binomial(length, p), and all ones at
    p = 1."""
    check_range(p, 1, "ASC input")
    if length < 1:
        raise ValueError("stream length must be positive")
    draws = uniform_block_from_states(np.array([state], dtype=np.uint64), length)[0]
    # a Python int compares exactly with uint64, also 2^64 at p = 1
    return draws < int(p * 2.0**64)
