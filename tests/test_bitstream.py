import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmem.bitstream import (Bitstream, estimate_value, pack_bits, pack_bool_matrix,
                                popcount_rows, unpack_bits, words_for)


def test_all_ones_unipolar():
    assert estimate_value(Bitstream.ones(8)) == 1.0


def test_half_ones_unipolar():
    bits = np.zeros(1024, dtype=np.uint8)
    bits[:512] = 1
    assert estimate_value(Bitstream.from_bits(bits)) == 0.5


def test_length_bounds():
    with pytest.raises(ValueError):
        Bitstream.zeros(0)
    with pytest.raises(ValueError):
        Bitstream.zeros((1 << 24) + 1)


def test_tail_bits_must_be_zero():
    words = np.array([0xFF], dtype=np.uint64)
    with pytest.raises(ValueError):
        Bitstream(words, 4)  # bits 4..7 set beyond length


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_pack_unpack_roundtrip(bits):
    packed = pack_bits(np.array(bits, dtype=np.uint8))
    assert unpack_bits(packed, len(bits)).tolist() == bits


@given(st.lists(st.integers(0, 1), min_size=1, max_size=400))
@settings(max_examples=50)
def test_estimate_matches_popcount_exactly(bits):
    bs = Bitstream.from_bits(np.array(bits, dtype=np.uint8))
    est = estimate_value(bs)
    assert bs.ones_count == sum(bits)
    assert round(est * bs.length) == bs.ones_count
    assert abs(est * bs.length - bs.ones_count) < 1e-6


def test_pack_bool_matrix_and_popcount_rows():
    rng = np.random.default_rng(3)
    mat = rng.random((5, 130)) < 0.4
    packed = pack_bool_matrix(mat)
    assert packed.shape == (5, words_for(130))
    counts = popcount_rows(packed)
    assert counts.tolist() == mat.sum(axis=1).tolist()
