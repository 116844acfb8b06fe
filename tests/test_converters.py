import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from stochmem.converters import (adc_quantize, asc_generate, dac_dequantize, dsc_generate,
                                 requantize)
from stochmem.lfsr import LfsrCycle, LfsrSpec
from stochmem.rng import derive_state


class TestQuantizers:
    """The converter widths are fixed: a 10-bit ADC and an 8-bit DAC."""

    @pytest.mark.parametrize("x,code", [(1.0, 1023), (0.0, 0), (0.3, 307)])
    def test_adc_values(self, x, code):
        assert adc_quantize(x) == code

    @pytest.mark.parametrize("code,value", [(255, 1.0), (0, 0.0)])
    def test_dac_endpoints(self, code, value):
        assert dac_dequantize(code) == value

    def test_dac_midscale(self):
        assert dac_dequantize(128) == pytest.approx(128 / 255)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            adc_quantize(1.2)
        with pytest.raises(ValueError):
            adc_quantize(-0.1)
        with pytest.raises(ValueError, match="8-bit DAC code"):
            dac_dequantize(256)
        with pytest.raises(ValueError, match="10-bit code"):
            requantize(1024)

    @given(st.integers(0, 255))
    def test_quantize_dequantize_identity_on_codes(self, code):
        # an 8-bit level survives the 10-bit ADC and the requantizer
        assert requantize(adc_quantize(dac_dequantize(code))) == code

    @given(st.floats(0.0, 1.0))
    def test_dequantize_quantize_half_step_bound(self, x):
        back = dac_dequantize(requantize(adc_quantize(x)))
        assert abs(back - x) <= 0.5 / 1023 + 0.5 / 255 + 1e-12

    @given(st.integers(0, 1023))
    def test_requantize_range(self, code):
        c8 = requantize(code)
        assert 0 <= c8 <= 255


class TestDsc:
    def test_full_scale_code_saturates(self):
        bits = dsc_generate(1023, 200, 99)
        assert bits.sum() == 200

    def test_zero_code_all_zeros(self):
        bits = dsc_generate(0, 200, 99)
        assert bits.sum() == 0

    @pytest.mark.parametrize("code", [1, 37, 512, 800, 1022])
    def test_full_period_ones_equals_code(self, code):
        bits = dsc_generate(code, 1023, 5)
        assert bits.sum() == code

    def test_code_out_of_range(self):
        with pytest.raises(ValueError):
            dsc_generate(1024, 10, 5)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="^stream length must be positive$"):
            dsc_generate(5, 0, 5)

    def test_matches_stepwise_comparator(self):
        # raw 777 seeds state 777 % 1023 + 1; the values follow the cycle's ring
        ring = LfsrCycle.for_spec(LfsrSpec()).ring.tolist()
        start = ring.index(778)
        values = [ring[(start + i) % len(ring)] for i in range(64)]
        got = dsc_generate(400, 64, 777)
        assert got.dtype == bool and got.tolist() == [v <= 400 for v in values]

    def test_other_spec(self):
        # a 4-bit register: a full period of 15 values carries code ones
        spec = LfsrSpec(4, frozenset({4, 3}))
        assert dsc_generate(6, 15, 2, spec).sum() == 6
        with pytest.raises(ValueError):
            dsc_generate(16, 15, 2, spec)


class TestAsc:
    def test_saturated(self):
        state = derive_state(1)
        assert asc_generate(1.0, 256, state).sum() == 256
        assert asc_generate(0.0, 256, state).sum() == 0

    def test_binomial_moments(self):
        ones = []
        for k in range(1000):
            ones.append(asc_generate(0.3, 1024, derive_state(10, k)).sum())
        ones = np.array(ones, dtype=float)
        assert abs(ones.mean() - 307.2) <= 0.05 * 307.2
        expect_std = np.sqrt(1024 * 0.3 * 0.7)
        assert abs(ones.std() - expect_std) <= 0.05 * expect_std

    def test_domain_error(self):
        with pytest.raises(ValueError):
            asc_generate(1.01, 10, derive_state(1))

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError, match="^stream length must be positive$"):
            asc_generate(0.5, 0, derive_state(1))


class TestSac:
    """The integrator readback of a stream is its fraction of ones."""

    @pytest.mark.parametrize("code", [0, 17, 512, 1023])
    def test_sac_of_full_period_dsc_is_exact(self, code):
        bits = dsc_generate(code, 1023, 321)
        assert bits.mean() == code / 1023

    def test_sdc_dsc_roundtrip_full_period(self):
        for code in (3, 99, 640):
            bits = dsc_generate(code, 1023, 9)
            assert bits.sum() == code


def test_asc_unbiasedness_bound():
    # |mean - p| <= 4 sqrt(p(1-p)/(N L))
    p, trials, length = 0.42, 400, 512
    total = 0
    for k in range(trials):
        total += asc_generate(p, length, derive_state(77, k, 1, 2)).sum()
    mean = total / (trials * length)
    assert abs(mean - p) <= 4 * np.sqrt(p * (1 - p) / (trials * length))
