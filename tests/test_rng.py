import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochmem.rng import (GOLDEN, RandomSource, SeedSpec, derive_generator,
                          derive_state, derive_state_grid,
                          gauss_from_states, mix64, mix64_array,
                          uniform_block_from_states)

_MASK = (1 << 64) - 1


def _splitmix_reference(seed, n):
    """Direct transcription of the public-domain sequence."""
    out = []
    state = seed
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & _MASK
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        out.append(z ^ (z >> 31))
    return out


def test_known_first_output_for_zero_seed():
    assert RandomSource(0).next_u64() == 0xE220A8397B1DCDAF


@given(st.integers(0, _MASK))
def test_matches_reference_sequence(seed):
    src = RandomSource(seed)
    assert [src.next_u64() for _ in range(5)] == _splitmix_reference(seed, 5)


def test_identical_seedspec_identical_outputs():
    spec = SeedSpec(42, 7, 9, 3)
    a = derive_generator(spec)
    b = derive_generator(spec)
    assert [a.next_u64() for _ in range(1000)] == [b.next_u64() for _ in range(1000)]


def test_global_seed_changes_sequence():
    a = derive_generator(SeedSpec(1, 0, 0, 0))
    b = derive_generator(SeedSpec(2, 0, 0, 0))
    assert a.next_u64() != b.next_u64()


def test_grid_derivation_no_collisions():
    ys, xs = np.mgrid[0:128, 0:128]
    states = derive_state_grid(99, xs.ravel(), ys.ravel(), 0)
    first = mix64_array(states + np.uint64(GOLDEN))
    assert len(np.unique(first)) == first.size


def test_grid_matches_scalar_derivation():
    xs = np.array([0, 3, 17], dtype=np.uint64)
    ys = np.array([5, 0, 11], dtype=np.uint64)
    grid = derive_state_grid(7, xs, ys, 4)
    scalar = [derive_state(SeedSpec(7, int(x), int(y), 4)) for x, y in zip(xs, ys)]
    assert grid.tolist() == scalar


def test_uniform_block_matches_scalar_stream():
    state = derive_state(SeedSpec(5, 1, 2, 3))
    block = uniform_block_from_states(np.array([state], dtype=np.uint64), 64)[0]
    src = RandomSource(state)
    assert block.tolist() == [src.next_u64() for _ in range(64)]


def test_uniform_block_column_chunks_in_buffers_match_the_whole_block():
    # columns c0.. of a row are the draws of state + c0 * GOLDEN; the buffers
    # may be strided views of larger arrays
    states = np.array([derive_state(SeedSpec(5, x, 2, 3)) for x in range(3)], dtype=np.uint64)
    whole = uniform_block_from_states(states, 200)
    into = np.empty((4, 128), dtype=np.uint64)
    tmp = np.empty_like(into)
    for c0 in (0, 128):
        w = min(128, 200 - c0)
        got = uniform_block_from_states(states + np.uint64(c0 * GOLDEN & _MASK), w,
                                        into=into[:3, :w], tmp=tmp[:3, :w])
        assert np.shares_memory(got, into)
        assert np.array_equal(got, whole[:, c0:c0 + w])


def test_u64_block_advances_state_like_scalar():
    a = RandomSource(123)
    b = RandomSource(123)
    blk = a.u64_block(10)
    singles = [b.next_u64() for _ in range(10)]
    assert blk.tolist() == singles
    assert a.next_u64() == b.next_u64()


def test_mix64_scalar_vs_array():
    vals = [0, 1, 0xDEADBEEF, _MASK]
    arr = mix64_array(np.array(vals, dtype=np.uint64))
    assert arr.tolist() == [mix64(v) for v in vals]


def test_gauss_from_states_matches_sources():
    states = derive_state_grid(3, np.arange(6, dtype=np.uint64),
                               np.zeros(6, dtype=np.uint64), 9)
    vec = gauss_from_states(states, 0.5)
    singles = [RandomSource(int(s)).gauss(0.5) for s in states]
    assert np.allclose(vec, singles, rtol=0, atol=0)


def test_gauss_moments():
    states = derive_state_grid(2024, np.arange(200_000, dtype=np.uint64),
                               np.zeros(200_000, dtype=np.uint64), 0)
    draws = gauss_from_states(states, 1.0)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


def test_bernoulli_edge_cases():
    src = RandomSource(5)
    assert src.bernoulli_bits(1.0, 100).all()
    assert not src.bernoulli_bits(0.0, 100).any()
    with pytest.raises(ValueError):
        src.bernoulli_bits(1.5, 10)
