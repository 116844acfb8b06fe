import numpy as np
import pytest

from stochmem import harness
from stochmem.circuits import AppKind, stream_plan
from stochmem.costs import SystemDesign
from stochmem.harness import ExperimentConfig
from stochmem.memory import NoiseModel, mem_read, mem_read_block, mem_write, mem_write_block
from stochmem.rng import derive_state, derive_state_grid, pixel_states


def _state(k=0):
    return derive_state(55, k)


def test_digital_roundtrip_exact_at_word_width():
    # the conv designs' SRAM is ideal: comparator levels are the 10-bit ADC codes
    values = np.array([0.0, 0.3, 0.5, 1.0])
    cfg = ExperimentConfig(app=AppKind.FRAME, design=SystemDesign.CONV_LFSR)
    plan = stream_plan(cfg.app, cfg.params)
    operands = np.stack([values, values[::-1]])
    xs, ys = np.arange(4), np.zeros(4, dtype=np.int64)
    levels = harness._stream_levels(cfg, plan, operands, pixel_states(cfg.global_seed, xs, ys))
    assert [lv.tolist() for lv in levels] == [[0, 307, 512, 1023], [1023, 512, 307, 0]]


def test_zero_noise_analog_is_ideal():
    noise = NoiseModel(0.0, 0.0)
    assert mem_read(noise, mem_write(noise, 0.3721, _state()), _state()) == 0.3721


def test_clamp_at_full_scale():
    noise = NoiseModel(0.2, 0.0)
    for i in range(64):
        stored = mem_write(noise, 1.0, _state(i))
        assert mem_read(noise, stored, _state(i + 1000)) <= 1.0


def test_value_domain_error():
    with pytest.raises(ValueError):
        mem_write(NoiseModel(), 1.5, _state())
    with pytest.raises(ValueError):
        mem_write_block(NoiseModel(), np.array([0.5, -0.1]), np.zeros(2, dtype=np.uint64))
    # (slot, pixel) rows, as the harness writes them
    with pytest.raises(ValueError):
        mem_write_block(NoiseModel(), np.array([[0.5, 0.2], [1.5, 0.3]]),
                        np.zeros((2, 2), dtype=np.uint64))


@pytest.mark.parametrize("value", (-0.1, float("nan"), float("inf")))
@pytest.mark.parametrize("field", ("write_sigma", "read_sigma"))
def test_noise_sigmas_must_be_nonnegative_and_finite(field, value):
    with pytest.raises(ValueError, match=f"noise sigmas .*; {field} is {value}"):
        NoiseModel(**{field: value})


def test_write_noise_moments():
    n = 100_000
    noise = NoiseModel(write_sigma=0.01)
    xs = np.arange(n, dtype=np.uint64)
    zeros = np.zeros(n, dtype=np.uint64)
    stored = mem_write_block(noise, np.full(n, 0.5), derive_state_grid(9, xs, zeros, 1))
    got = mem_read_block(noise, stored, derive_state_grid(9, xs, zeros, 2))
    # read noise is zero here, so stats reflect the write draw alone
    assert abs(got.mean() - 0.5) <= 0.05 * 0.01 + 1e-4
    assert abs(got.std() - 0.01) <= 0.05 * 0.01


def test_folded_normal_read_write_error():
    n = 100_000
    sigma = 0.01
    noise = NoiseModel(sigma, sigma)
    xs = np.arange(n, dtype=np.uint64)
    zeros = np.zeros(n, dtype=np.uint64)
    stored = mem_write_block(noise, np.full(n, 0.5), derive_state_grid(3, xs, zeros, 1))
    got = mem_read_block(noise, stored, derive_state_grid(3, xs, zeros, 2))
    expected = sigma * np.sqrt(2.0) * np.sqrt(2.0 / np.pi)
    measured = np.abs(got - 0.5).mean()
    assert abs(measured - expected) <= 0.05 * expected


def test_read_noise_independent_across_reads():
    n_trials, n_reads = 10_000, 8
    sigma = 0.02
    noise = NoiseModel(0.0, sigma)
    stored = mem_write(noise, 0.5, _state())
    xs = np.arange(n_trials * n_reads, dtype=np.uint64)
    states = derive_state_grid(4, xs, np.zeros_like(xs), 7)
    reads = mem_read_block(noise, np.full(n_trials * n_reads, stored), states)
    means = reads.reshape(n_trials, n_reads).mean(axis=1)
    var_of_mean = means.var()
    assert abs(var_of_mean - sigma**2 / n_reads) <= 0.10 * sigma**2 / n_reads


def test_block_ops_match_scalar_ops():
    noise = NoiseModel(0.02, 0.015)
    xs = np.arange(16, dtype=np.uint64)
    zeros = np.zeros(16, dtype=np.uint64)
    # (slot, pixel) rows, as the harness writes them
    w_states = derive_state_grid(21, xs, zeros, 1).reshape(2, 8)
    r_states = derive_state_grid(21, xs, zeros, 2).reshape(2, 8)
    values = np.linspace(0.05, 0.95, 16).reshape(2, 8)
    got_block = mem_read_block(noise, mem_write_block(noise, values, w_states), r_states)
    got_scalar = [[mem_read(noise, mem_write(noise, v, int(w)), int(r))
                   for v, w, r in zip(*rows)] for rows in zip(values, w_states, r_states)]
    assert np.allclose(got_block, got_scalar, rtol=0, atol=0)
