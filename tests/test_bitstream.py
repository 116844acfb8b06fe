import numpy as np
from hypothesis import given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from stochmem.bitstream import pack_bool_matrix, popcount_rows, unpack_bits, words_for


def _value(bits) -> float:
    """Value a one-stream row carries: its popcount over the length."""
    bits = np.asarray(bits, dtype=bool)
    return popcount_rows(pack_bool_matrix(bits[None]))[0] / bits.size


def test_all_ones_unipolar():
    assert _value(np.ones(8)) == 1.0


def test_half_ones_unipolar():
    bits = np.zeros(1024, dtype=bool)
    bits[:512] = True
    assert _value(bits) == 0.5


@given(st.lists(st.integers(0, 1), min_size=1, max_size=300))
def test_pack_unpack_roundtrip(bits):
    row = pack_bool_matrix(np.array([bits], dtype=bool))[0]
    assert row.shape == (words_for(len(bits)),)
    assert unpack_bits(row, len(bits)).tolist() == bits
    # bits past the length are zero
    assert unpack_bits(row, 64 * row.size)[len(bits):].sum() == 0


@given(st.lists(st.integers(0, 1), min_size=1, max_size=400))
@settings(max_examples=50)
def test_estimate_matches_popcount_exactly(bits):
    assert _value(bits) == sum(bits) / len(bits)


def test_pack_bool_matrix_and_popcount_rows():
    rng = np.random.default_rng(3)
    mat = rng.random((5, 130)) < 0.4
    packed = pack_bool_matrix(mat)
    assert packed.shape == (5, words_for(130))
    counts = popcount_rows(packed)
    assert counts.tolist() == mat.sum(axis=1).tolist()


# widths 1-200, with the whole-word ones drawn often enough to be sure of
_WIDTHS = st.one_of(st.integers(1, 200), st.sampled_from([64, 128, 192]))


@given(_WIDTHS.flatmap(lambda width: hnp.arrays(bool, st.tuples(st.integers(0, 6),
                                                                st.just(width)))),
       st.sampled_from(["whole", "rows", "columns", "transposed"]))
def test_pack_bool_matrix_agrees_with_a_per_bit_reference(mat, view):
    # flat packing must give every row its own words, for narrow and whole-word
    # widths alike, and for views whose rows are not contiguous in memory
    if view == "rows":
        mat = np.repeat(mat, 2, axis=0)[::2]
    elif view == "columns":
        mat = np.repeat(mat, 2, axis=1)[:, ::2]
    elif view == "transposed":
        mat = np.ascontiguousarray(mat.T).T
    n, width = mat.shape
    packed = pack_bool_matrix(mat)
    assert packed.shape == (n, words_for(width)) and packed.dtype == np.uint64
    for row, bits in zip(packed, mat):
        assert unpack_bits(row, 64 * row.size).tolist() == bits.tolist() + [False] * (
            64 * row.size - width)
