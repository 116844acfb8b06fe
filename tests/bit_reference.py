"""Per-bit references of the packed ``*_batch`` circuits.

Each takes bool bit arrays whose last axis is the cycle (one stream of L bits,
or one stream per row) and evaluates the circuit cycle by cycle, so it shares
no word expression with the circuit it checks.  The gamma reference is
``circuits.gamma_eval``.
"""

import numpy as np

from stochmem.circuits import KDE_HISTORY


def robert_bits(b00, b01, b10, b11, sel):
    """Per cycle the select picks one of the two cross differences."""
    return np.where(sel, b00 != b11, b01 != b10)


def median_bits(operands):
    """The median of nine bits is one iff at least five are one."""
    return np.sum(operands, axis=0) >= 5


def frame_flags(cur, prev, theta):
    """1.0 where the streams differ in more than theta of their bits."""
    length = np.shape(cur)[-1]
    return ((cur != prev).sum(axis=-1) > theta * length).astype(np.float64)


def kde_flags(cur, hist, delta, theta):
    """1.0 where fewer than theta of the history streams differ from cur in at
    most delta of their bits."""
    length = np.shape(cur)[-1]
    matches = sum((cur != h).sum(axis=-1) <= delta * length for h in hist)
    return (matches / KDE_HISTORY < theta).astype(np.float64)
