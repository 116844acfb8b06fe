"""Packed stochastic bitstreams, the one stream form of the engine.

A stochastic operand is a sequence of bits whose value is the fraction of
ones (unipolar encoding).  n streams of one length are an (n, words_for(length))
uint64 matrix: bit index 0 is the least significant bit of word 0, and bits
past ``length`` in the last word are always zero.  The scalar oracles use 1-D
bool arrays instead; pack_bool_matrix packs them and unpack_bits reads back.
"""

from __future__ import annotations

import numpy as np

MAX_LENGTH = 1 << 24
_WORD_BITS = 64


def check_length(length: int) -> None:
    if not 1 <= length <= MAX_LENGTH:
        raise ValueError(f"length must be in 1..{MAX_LENGTH}, got {length}")


def words_for(length: int) -> int:
    return (length + _WORD_BITS - 1) // _WORD_BITS


def tail_mask(length: int) -> int:
    """Mask selecting the valid bits of the last word."""
    rem = length % _WORD_BITS
    return (1 << rem) - 1 if rem else (1 << _WORD_BITS) - 1


def unpack_bits(words: np.ndarray, length: int) -> np.ndarray:
    raw = np.unpackbits(words.view(np.uint8), bitorder="little")
    return raw[:length]


def pack_bool_matrix(bits: np.ndarray) -> np.ndarray:
    """Pack an (n, length) boolean matrix into (n, words) uint64 rows."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    if packed.shape[1] % 8 == 0:
        return packed.view("<u8")
    out = np.zeros((packed.shape[0], words_for(bits.shape[1])), dtype="<u8")
    out.view(np.uint8)[:, :packed.shape[1]] = packed
    return out


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of an (n, words) uint64 matrix."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)
