import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochmem.converters import asc_generate
from stochmem.rng import (GOLDEN, _mix64_inplace, bernoulli_threshold_u64, derive_state,
                          derive_state_grid, gauss, gauss_from_states, mix64,
                          uniform_block_from_states, uniforms)

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


def _draws(state, n):
    return uniform_block_from_states(np.array([state], dtype=np.uint64), n)[0].tolist()


def test_known_first_output_for_zero_seed():
    assert _draws(0, 1) == [0xE220A8397B1DCDAF]


@given(st.integers(0, _MASK))
def test_matches_reference_sequence(seed):
    assert _draws(seed, 5) == _splitmix_reference(seed, 5)


@given(st.integers(0, _MASK))
def test_uniforms_match_reference_sequence(seed):
    expected = [(u >> 11) * 2.0 ** -53 for u in _splitmix_reference(seed, 5)]
    assert uniforms(seed, 5).tolist() == expected


@given(st.integers(0, _MASK))
def test_scalar_gauss_matches_reference_box_muller(seed):
    a, b = _splitmix_reference(seed, 2)
    u1 = ((a >> 11) + 1) * 2.0 ** -53
    u2 = (b >> 11) * 2.0 ** -53
    expected = float(np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)) * 0.25
    assert gauss(seed, 0.25) == expected


def test_identical_seedspec_identical_outputs():
    assert derive_state(42, 7, 9, 3) == derive_state(42, 7, 9, 3)
    assert derive_state(42) == derive_state(42, 0, 0, 0)


def test_global_seed_changes_sequence():
    assert _draws(derive_state(1), 1) != _draws(derive_state(2), 1)


def test_grid_derivation_no_collisions():
    ys, xs = np.mgrid[0:128, 0:128]
    states = derive_state_grid(99, xs.ravel(), ys.ravel(), 0)
    first = uniform_block_from_states(states, 1)[:, 0]
    assert len(np.unique(first)) == first.size


def test_grid_matches_scalar_derivation():
    xs = np.array([0, 3, 17], dtype=np.uint64)
    ys = np.array([5, 0, 11], dtype=np.uint64)
    grid = derive_state_grid(7, xs, ys, 4)
    scalar = [derive_state(7, int(x), int(y), 4) for x, y in zip(xs, ys)]
    assert grid.tolist() == scalar


def test_uniform_block_matches_scalar_stream():
    state = derive_state(5, 1, 2, 3)
    assert _draws(state, 64) == _splitmix_reference(state, 64)


def test_uniform_block_column_chunks_in_buffers_match_the_whole_block():
    # columns c0.. of a row are the draws of state + c0 * GOLDEN; the buffers
    # may be strided views of larger arrays
    states = np.array([derive_state(5, x, 2, 3) for x in range(3)], dtype=np.uint64)
    whole = uniform_block_from_states(states, 200)
    into = np.empty((4, 128), dtype=np.uint64)
    tmp = np.empty_like(into)
    for c0 in (0, 128):
        w = min(128, 200 - c0)
        got = uniform_block_from_states(states + np.uint64(c0 * GOLDEN & _MASK), w,
                                        into=into[:3, :w], tmp=tmp[:3, :w])
        assert np.shares_memory(got, into)
        assert np.array_equal(got, whole[:, c0:c0 + w])


def test_mix64_scalar_vs_array():
    vals = [0, 1, 0xDEADBEEF, _MASK]
    arr = _mix64_inplace(np.array(vals, dtype=np.uint64))
    assert arr.tolist() == [mix64(v) for v in vals]
    # draw 0 of state s - GOLDEN is mix64(s)
    assert [mix64(v) for v in vals] == [_splitmix_reference((v - GOLDEN) & _MASK, 1)[0]
                                        for v in vals]


def test_gauss_from_states_matches_sources():
    states = derive_state_grid(3, np.arange(6, dtype=np.uint64),
                               np.zeros(6, dtype=np.uint64), 9)
    vec = gauss_from_states(states, 0.5)
    singles = [gauss(int(s), 0.5) for s in states]
    assert np.allclose(vec, singles, rtol=0, atol=0)


def test_gauss_moments():
    states = derive_state_grid(2024, np.arange(200_000, dtype=np.uint64),
                               np.zeros(200_000, dtype=np.uint64), 0)
    draws = gauss_from_states(states, 1.0)
    assert abs(draws.mean()) < 0.01
    assert abs(draws.std() - 1.0) < 0.01


@given(st.one_of(st.floats(0.0, 1.0, exclude_max=True),
                 st.sampled_from([0.0, 5e-324, 2.0 ** -1022, 2.0 ** -1074 * 3,
                                  1.0 - 2.0 ** -53, 0.5])))
def test_threshold_is_the_exact_integer_scaling(p):
    # P[u < t] = t / 2^64 for a uniform u64 draw, so t must be p * 2^64 exactly
    assert int(bernoulli_threshold_u64(p)) == int(p * 2.0**64)


def test_bernoulli_edge_cases():
    state = derive_state(5)
    assert asc_generate(1.0, 100, state).all()
    assert not asc_generate(0.0, 100, state).any()
    with pytest.raises(ValueError):
        asc_generate(1.5, 10, state)
