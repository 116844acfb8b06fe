"""Stochastic bitstream representation.

A stochastic operand is a packed sequence of bits whose value is the
fraction of ones (unipolar) or its affine remap to [-1, 1] (bipolar).
Bit index 0 is the least significant bit of word 0; bits past ``length``
in the last word are always zero.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field

import numpy as np

MAX_LENGTH = 1 << 24
_WORD_BITS = 64


class Encoding(enum.Enum):
    UNIPOLAR = "unipolar"
    BIPOLAR = "bipolar"

    def decode(self, ones_fraction: float) -> float:
        if self is Encoding.UNIPOLAR:
            return ones_fraction
        return 2.0 * ones_fraction - 1.0


def words_for(length: int) -> int:
    return (length + _WORD_BITS - 1) // _WORD_BITS


def tail_mask(length: int) -> int:
    """Mask selecting the valid bits of the last word."""
    rem = length % _WORD_BITS
    return (1 << rem) - 1 if rem else (1 << _WORD_BITS) - 1


def get_bit(words: np.ndarray, index: int) -> int:
    return int((words[index >> 6] >> np.uint64(index & 63)) & np.uint64(1))

def set_bit(words: np.ndarray, index: int, value: int) -> None:
    mask = np.uint64(1) << np.uint64(index & 63)
    if value:
        words[index >> 6] |= mask
    else:
        words[index >> 6] &= ~mask


def pack_bits(bits: np.ndarray) -> np.ndarray:
    """Pack a 1-D array of 0/1 into little-endian uint64 words."""
    bits = np.asarray(bits, dtype=np.uint8)
    packed = np.packbits(bits, bitorder="little")
    pad = (-packed.size) % 8
    if pad:
        packed = np.concatenate([packed, np.zeros(pad, dtype=np.uint8)])
    return packed.view("<u8").copy()


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


def popcount_words(words: np.ndarray) -> int:
    return int(np.bitwise_count(words).sum())


def popcount_rows(words: np.ndarray) -> np.ndarray:
    """Per-row popcount of an (n, words) uint64 matrix."""
    return np.bitwise_count(words).sum(axis=1, dtype=np.int64)


@dataclass(frozen=True, eq=False)
class Bitstream:
    """Immutable packed bitstream of ``length`` bits."""

    words: np.ndarray
    length: int
    encoding: Encoding = Encoding.UNIPOLAR
    _ones: int = field(init=False, repr=False, compare=False, default=-1)

    def __post_init__(self):
        if not 1 <= self.length <= MAX_LENGTH:
            raise ValueError(f"bitstream length must be in 1..{MAX_LENGTH}, got {self.length}")
        words = np.ascontiguousarray(self.words, dtype=np.uint64)
        if words.shape != (words_for(self.length),):
            raise ValueError("word buffer does not match length")
        if int(words[-1]) & ~tail_mask(self.length) & ((1 << 64) - 1):
            raise ValueError("bits beyond length must be zero")
        words.setflags(write=False)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "_ones", popcount_words(words))

    @classmethod
    def from_bits(cls, bits, encoding: Encoding = Encoding.UNIPOLAR) -> "Bitstream":
        bits = np.asarray(bits)
        return cls(pack_bits(bits), len(bits), encoding)

    @classmethod
    def zeros(cls, length: int, encoding: Encoding = Encoding.UNIPOLAR) -> "Bitstream":
        return cls(np.zeros(words_for(length), dtype=np.uint64), length, encoding)

    @classmethod
    def ones(cls, length: int, encoding: Encoding = Encoding.UNIPOLAR) -> "Bitstream":
        words = np.full(words_for(length), ~np.uint64(0), dtype=np.uint64)
        words[-1] = np.uint64(tail_mask(length))
        return cls(words, length, encoding)

    @property
    def ones_count(self) -> int:
        return self._ones

    def bit(self, index: int) -> int:
        if not 0 <= index < self.length:
            raise IndexError(index)
        return get_bit(self.words, index)

    def to_bits(self) -> np.ndarray:
        return unpack_bits(self.words, self.length)

    def to_bytes(self) -> bytes:
        """Debug serialization: u64 length header plus raw little-endian words."""
        return struct.pack("<Q", self.length) + self.words.astype("<u8").tobytes()

    @classmethod
    def from_bytes(cls, blob: bytes, encoding: Encoding = Encoding.UNIPOLAR) -> "Bitstream":
        (length,) = struct.unpack_from("<Q", blob)
        words = np.frombuffer(blob, dtype="<u8", offset=8).copy()
        return cls(words, length, encoding)


def estimate_value(bs: Bitstream) -> float:
    """Value carried by a stream: exact popcount over length, then decoded."""
    if bs.length <= 0:
        raise ValueError("cannot estimate an empty stream")
    return bs.encoding.decode(bs.ones_count / bs.length)
