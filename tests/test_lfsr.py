import numpy as np
import pytest

from stochmem.lfsr import LfsrCycle, LfsrSpec, lfsr_values


def _walk(spec, state, steps):
    """steps values from a register at state (1..period), and the state after."""
    values = lfsr_values(spec, state - 1, steps + 1)
    return values[:-1], values[-1]


@pytest.mark.parametrize("width,taps", [(4, {4, 3}), (10, {10, 7})])
def test_period_is_maximal(width, taps):
    spec = LfsrSpec(width, frozenset(taps))
    period = (1 << width) - 1
    vals, state = _walk(spec, 1, period)
    assert state == 1
    # no earlier return to the seed
    assert len(set(vals)) == period
    assert set(vals) == set(range(1, 1 << width))


def test_width4_revisits_seed_after_15_steps():
    spec = LfsrSpec(4, frozenset({4, 3}))
    vals, state = _walk(spec, 1, 15)
    assert state == 1
    assert len(set(vals)) == 15


def test_non_maximal_taps_rejected():
    # x^4 + x^2 + 1 is not primitive
    with pytest.raises(ValueError):
        LfsrSpec(4, frozenset({4, 2}))


def test_tap_positions_validated():
    with pytest.raises(ValueError):
        LfsrSpec(4, frozenset({5}))
    with pytest.raises(ValueError):
        LfsrSpec(1, frozenset({1}))


def test_seed_state_folds_onto_nonzero_range():
    spec = LfsrSpec()
    assert lfsr_values(spec, 0, 1) == [1]
    assert lfsr_values(spec, 1022, 1) == [1023]
    assert lfsr_values(spec, 1023, 1) == [1]


def test_cycle_matches_stepwise_walk():
    spec = LfsrSpec()
    cycle = LfsrCycle.for_spec(spec)
    start = 321
    vals, _ = _walk(spec, start, 50)
    pos = cycle.position[np.array([start])]
    block = cycle.sequence_block(pos.astype(np.int64), 50)[0]
    assert block.tolist() == vals


def test_cycle_wraps_past_full_period():
    spec = LfsrSpec(4, frozenset({4, 3}))
    cycle = LfsrCycle.for_spec(spec)
    vals, _ = _walk(spec, 9, 40)
    pos = cycle.position[np.array([9])]
    block = cycle.sequence_block(pos.astype(np.int64), 40)[0]
    assert block.tolist() == vals
