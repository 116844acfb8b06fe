"""The packed ``*_batch`` circuits against per-bit references.

Row i of every batch input is the word buffer of one random ``Bitstream``;
each reference evaluates the circuit cycle by cycle on ``to_bits()``, so it
shares no word expression with the batch circuit.  The ``*_eval`` forms are
one-row calls of these circuits; ``gamma_eval`` is an independent per-bit
oracle of its own.
"""

import numpy as np
import pytest

from stochmem.bitstream import Bitstream, pack_bool_matrix
from stochmem.circuits import (KDE_HISTORY, frame_batch, gamma_batch_counts, gamma_eval,
                               kde_batch, median_batch, robert_batch)

LENGTHS = (1, 63, 64, 65, 200)
ROWS = 6


def _streams(rng, length) -> list[Bitstream]:
    """ROWS random streams, each with its own random ones rate."""
    return [Bitstream.from_bits(rng.random(length) < r) for r in rng.random(ROWS)]


def _flipped(rng, streams, fracs) -> list[Bitstream]:
    """Stream i with each bit flipped with probability fracs[i]."""
    out = []
    for s, frac in zip(streams, fracs):
        bits = s.to_bits().astype(bool)
        bits ^= rng.random(s.length) < frac
        out.append(Bitstream.from_bits(bits))
    return out


def _rows(streams) -> np.ndarray:
    return np.stack([s.words for s in streams])


def _bits(streams) -> np.ndarray:
    """(rows, length) bool matrix of the streams' bits."""
    return np.stack([s.to_bits() for s in streams]).astype(bool)


@pytest.mark.parametrize("length", LENGTHS)
def test_robert_batch(length):
    rng = np.random.default_rng(length)
    ins = [_streams(rng, length) for _ in range(5)]
    out = robert_batch(*(_rows(s) for s in ins))
    b00, b01, b10, b11, sel = (_bits(s) for s in ins)
    # per cycle the select picks one of the two cross differences
    expected = np.where(sel, b00 != b11, b01 != b10)
    assert np.array_equal(out, pack_bool_matrix(expected))


@pytest.mark.parametrize("length", LENGTHS)
def test_median_batch(length):
    rng = np.random.default_rng(100 + length)
    ins = [_streams(rng, length) for _ in range(9)]
    out = median_batch([_rows(s) for s in ins])
    # the median of nine bits is one iff at least five are one
    expected = np.stack([_bits(s) for s in ins]).sum(axis=0) >= 5
    assert np.array_equal(out, pack_bool_matrix(expected))


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("theta", (0.0, 0.1, 0.3))
def test_frame_batch(length, theta):
    rng = np.random.default_rng(200 + length)
    cur = _streams(rng, length)
    prev = _flipped(rng, cur, np.linspace(0.0, 0.5, ROWS))
    out = frame_batch(_rows(cur), _rows(prev), theta, length)
    assert out.dtype == np.float64
    differing = (_bits(cur) != _bits(prev)).sum(axis=1)
    assert out.tolist() == [float(d > theta * length) for d in differing]


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("delta, theta", ((0.1, 0.3), (0.2, 0.5), (0.0, 0.9)))
def test_kde_batch(length, delta, theta):
    rng = np.random.default_rng(300 + length)
    cur = _streams(rng, length)
    # rows range from near copies of cur to far from it
    scales = np.linspace(0.0, 4 * delta + 0.1, ROWS)
    hist = [_flipped(rng, cur, rng.random(ROWS) * scales) for _ in range(KDE_HISTORY)]
    out = kde_batch(_rows(cur), [_rows(h) for h in hist], delta, theta, length)
    cur_bits = _bits(cur)
    matches = sum((cur_bits != _bits(h)).sum(axis=1) <= delta * length for h in hist)
    assert out.tolist() == [float(m / KDE_HISTORY < theta) for m in matches]


def test_kde_batch_checks_history_size():
    rows = np.zeros((2, 1), dtype=np.uint64)
    with pytest.raises(ValueError):
        kde_batch(rows, [rows] * (KDE_HISTORY - 1), 0.1, 0.1, 64)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("degree", (1, 6, 9))
def test_gamma_batch_counts(length, degree):
    rng = np.random.default_rng(400 + 10 * length + degree)
    xs = [_streams(rng, length) for _ in range(degree)]
    cs = [_streams(rng, length) for _ in range(degree + 1)]
    counts = gamma_batch_counts(np.stack([_rows(x) for x in xs]),
                                np.stack([_rows(c) for c in cs]))
    expected = [gamma_eval([x[i] for x in xs], [c[i] for c in cs]).ones_count
                for i in range(ROWS)]
    assert counts.tolist() == expected


def test_gamma_batch_counts_rejects_coefficient_count():
    x = np.zeros((3, 2, 1), dtype=np.uint64)
    with pytest.raises(ValueError):
        gamma_batch_counts(x, x)


def test_gamma_batch_counts_does_not_wrap_past_255_replicas():
    """300 replicas at p=0.9 put ~270 ones in a cycle; an 8-bit count wraps."""
    rng = np.random.default_rng(7)
    degree, n, length = 300, 4, 200
    x_bits = rng.random((degree, n, length)) < 0.9
    c_bits = rng.random((degree + 1, n, length)) < 0.5
    k = x_bits.sum(axis=0, dtype=np.int64)
    assert k.max() > 255
    selected = np.take_along_axis(c_bits, k[None], axis=0)[0]
    counts = gamma_batch_counts(np.stack([pack_bool_matrix(b) for b in x_bits]),
                                np.stack([pack_bool_matrix(b) for b in c_bits]))
    assert counts.tolist() == selected.sum(axis=1).tolist()
