"""The packed ``*_batch`` circuits against per-bit references.

Row i of every batch input packs one random bit array; each reference in
``bit_reference`` evaluates the circuit cycle by cycle on those bits, so it
shares no word expression with the batch circuit.  ``gamma_eval`` is the
independent per-bit gamma oracle.
"""

import numpy as np
import pytest

from bit_reference import frame_flags, kde_flags, median_bits, robert_bits
from stochmem.bitstream import pack_bool_matrix
from stochmem.circuits import (KDE_HISTORY, frame_batch, gamma_batch_counts, gamma_eval,
                               kde_batch, median_batch, robert_batch)

LENGTHS = (1, 63, 64, 65, 200)
ROWS = 6


def _bits(rng, length) -> np.ndarray:
    """(ROWS, length) random bits, each row with its own random ones rate."""
    return rng.random((ROWS, length)) < rng.random((ROWS, 1))


def _flipped(rng, bits, fracs) -> np.ndarray:
    """Row i of bits with each bit flipped with probability fracs[i]."""
    return bits ^ (rng.random(bits.shape) < np.asarray(fracs)[:, None])


@pytest.mark.parametrize("length", LENGTHS)
def test_robert_batch(length):
    rng = np.random.default_rng(length)
    ins = [_bits(rng, length) for _ in range(5)]
    out = robert_batch(*map(pack_bool_matrix, ins))
    assert np.array_equal(out, pack_bool_matrix(robert_bits(*ins)))


@pytest.mark.parametrize("length", LENGTHS)
def test_median_batch(length):
    rng = np.random.default_rng(100 + length)
    ins = [_bits(rng, length) for _ in range(9)]
    out = median_batch([pack_bool_matrix(b) for b in ins])
    assert np.array_equal(out, pack_bool_matrix(median_bits(ins)))


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("theta", (0.0, 0.1, 0.3))
def test_frame_batch(length, theta):
    rng = np.random.default_rng(200 + length)
    cur = _bits(rng, length)
    prev = _flipped(rng, cur, np.linspace(0.0, 0.5, ROWS))
    out = frame_batch(pack_bool_matrix(cur), pack_bool_matrix(prev), theta, length)
    assert out.dtype == np.float64
    assert out.tolist() == frame_flags(cur, prev, theta).tolist()


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("delta, theta", ((0.1, 0.3), (0.2, 0.5), (0.0, 0.9)))
def test_kde_batch(length, delta, theta):
    rng = np.random.default_rng(300 + length)
    cur = _bits(rng, length)
    # rows range from near copies of cur to far from it
    scales = np.linspace(0.0, 4 * delta + 0.1, ROWS)
    hist = [_flipped(rng, cur, rng.random(ROWS) * scales) for _ in range(KDE_HISTORY)]
    out = kde_batch(pack_bool_matrix(cur), [pack_bool_matrix(h) for h in hist], delta, theta,
                    length)
    assert out.tolist() == kde_flags(cur, hist, delta, theta).tolist()


def test_kde_batch_checks_history_size():
    rows = np.zeros((2, 1), dtype=np.uint64)
    with pytest.raises(ValueError):
        kde_batch(rows, [rows] * (KDE_HISTORY - 1), 0.1, 0.1, 64)
    # the size is checked before any row is read: these rows do not broadcast
    odd = np.zeros((3, 1), dtype=np.uint64)
    for n in (KDE_HISTORY - 1, KDE_HISTORY + 1):
        with pytest.raises(ValueError, match=f"history must hold {KDE_HISTORY} streams, got {n}"):
            kde_batch(rows, [odd] * n, 0.1, 0.1, 64)


@pytest.mark.parametrize("length", LENGTHS)
@pytest.mark.parametrize("degree", (1, 6, 9))
def test_gamma_batch_counts(length, degree):
    rng = np.random.default_rng(400 + 10 * length + degree)
    xs = np.stack([_bits(rng, length) for _ in range(degree)])
    cs = np.stack([_bits(rng, length) for _ in range(degree + 1)])
    counts = gamma_batch_counts(np.stack([pack_bool_matrix(x) for x in xs]),
                                np.stack([pack_bool_matrix(c) for c in cs]))
    expected = [int(gamma_eval(xs[:, i], cs[:, i]).sum()) for i in range(ROWS)]
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
                                np.stack([pack_bool_matrix(c) for c in c_bits]))
    assert counts.tolist() == selected.sum(axis=1).tolist()
