import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmem.bitstream import Bitstream, estimate_value
from stochmem.circuits import (AppInputs, AppKind, AppParams, BernsteinPoly,
                               GateKind, MEDIAN9_PAIRS, bernstein_basis,
                               fit_bernstein, frame_diff_eval, gamma_eval,
                               gate_eval, golden_eval, golden_frame,
                               golden_gamma, golden_kde, golden_median,
                               golden_robert, kde_eval, median9_reference,
                               median_eval, robert_eval)
from stochmem.converters import dsc_generate
from stochmem.images import ImageGray
from stochmem.lfsr import LfsrSpec, seed_state
from stochmem.rng import SeedSpec, derive_generator

FULL = 1023


def _shared(code, seed=11):
    """Streams from one generator are correlated by construction."""
    return dsc_generate(code, FULL, seed_state(LfsrSpec(), seed))


def _bern(p, length, seed_fields):
    rng = derive_generator(SeedSpec(*seed_fields))
    from stochmem.converters import asc_generate
    return asc_generate(p, length, rng)


class TestGates:
    def test_xor_correlated_absolute_difference(self):
        a, b = _shared(round(0.75 * FULL)), _shared(round(0.25 * FULL))
        out = gate_eval(GateKind.XOR, a, b)
        assert abs(estimate_value(out) - 0.5) <= 1 / FULL

    def test_and_correlated_is_min(self):
        a, b = _shared(round(0.8 * FULL)), _shared(round(0.5 * FULL))
        assert abs(estimate_value(gate_eval(GateKind.AND, a, b)) - 0.5) <= 1 / FULL

    def test_or_correlated_is_max(self):
        a, b = _shared(round(0.8 * FULL)), _shared(round(0.5 * FULL))
        assert abs(estimate_value(gate_eval(GateKind.OR, a, b)) - 0.8) <= 1 / FULL

    def test_not_complement(self):
        a = _shared(307)
        assert estimate_value(gate_eval(GateKind.NOT, a)) == pytest.approx(1 - 307 / FULL)

    def test_mux_scaled_addition(self):
        length = 1024
        a = Bitstream.ones(length)
        b = Bitstream.zeros(length)
        sel = _bern(0.5, length, (3, 0, 0, 8))
        out = gate_eval(GateKind.MUX, a, b, sel)
        assert abs(estimate_value(out) - 0.5) <= 4 * np.sqrt(0.25 / length)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            gate_eval(GateKind.AND, Bitstream.ones(8), Bitstream.ones(16))

    def test_correlated_identity_grid(self):
        """Exhaustive one-period check on a 32x32 code grid."""
        codes = np.linspace(0, FULL, 32).astype(int)
        streams = {c: _shared(int(c), seed=21) for c in codes}
        for ca, cb in itertools.product(codes[::4], codes[::4]):
            a, b = streams[ca], streams[cb]
            xor = estimate_value(gate_eval(GateKind.XOR, a, b))
            assert abs(xor - abs(ca - cb) / FULL) <= 1 / FULL
            mn = estimate_value(gate_eval(GateKind.AND, a, b))
            assert abs(mn - min(ca, cb) / FULL) <= 1 / FULL
            mx = estimate_value(gate_eval(GateKind.OR, a, b))
            assert abs(mx - max(ca, cb) / FULL) <= 1 / FULL


class TestRobert:
    def test_flat_region_no_edge(self):
        s = _shared(500)
        sel = _shared(512, seed=99)
        out = robert_eval(s, s, s, s, sel)
        assert estimate_value(out) == 0.0

    def test_opposite_corners(self):
        length = 1024
        p00 = Bitstream.ones(length)
        p11 = Bitstream.zeros(length)
        pd = _bern(0.4, length, (5, 0, 0, 1))
        sel = _bern(0.5, length, (5, 0, 0, 8))
        out = robert_eval(p00, pd, pd, p11, sel)
        # golden 0.5*(|1-0| + |0.4-0.4|) = 0.5
        assert abs(estimate_value(out) - 0.5) <= 4 * np.sqrt(0.25 / length)

    def test_monte_carlo_against_golden(self):
        length = 1024
        rng = np.random.default_rng(42)
        errs = []
        for trial in range(500):
            vals = rng.random(4)
            g = 0.5 * (abs(vals[0] - vals[3]) + abs(vals[1] - vals[2]))
            sel = derive_generator(SeedSpec(trial, 0, 0, 8))
            from stochmem.converters import asc_generate
            ua = asc_generate(vals[0], length, derive_generator(SeedSpec(trial, 0, 0, 0)))
            da = asc_generate(vals[3], length, derive_generator(SeedSpec(trial, 0, 0, 0)))
            ub = asc_generate(vals[1], length, derive_generator(SeedSpec(trial, 0, 0, 1)))
            db = asc_generate(vals[2], length, derive_generator(SeedSpec(trial, 0, 0, 1)))
            s = asc_generate(0.5, length, sel)
            est = estimate_value(robert_eval(ua, ub, db, da, s))
            errs.append(abs(est - g))
        assert np.mean(errs) <= 0.02


class TestMedian:
    def test_network_is_exact_median_on_floats(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            vals = list(rng.random(9))
            regs = vals[:]
            for i, j in MEDIAN9_PAIRS:
                lo, hi = min(regs[i], regs[j]), max(regs[i], regs[j])
                regs[i], regs[j] = lo, hi
            assert regs[4] == median9_reference(vals)

    def test_network_majority_on_all_binary_patterns(self):
        for pattern in range(512):
            vals = [(pattern >> k) & 1 for k in range(9)]
            regs = vals[:]
            for i, j in MEDIAN9_PAIRS:
                lo, hi = min(regs[i], regs[j]), max(regs[i], regs[j])
                regs[i], regs[j] = lo, hi
            assert regs[4] == sorted(vals)[4]

    def test_equal_streams_pass_through(self):
        streams = [_shared(400)] * 9
        assert estimate_value(median_eval(streams)) == pytest.approx(400 / FULL)

    def test_decade_values(self):
        codes = [round(v * FULL) for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
        streams = [_shared(c) for c in codes]
        assert abs(estimate_value(median_eval(streams)) - 0.5) <= 2 / FULL

    def test_salt_outlier_discarded(self):
        codes = [round(0.5 * FULL)] * 8 + [FULL]
        streams = [_shared(c) for c in codes]
        assert abs(estimate_value(median_eval(streams)) - 0.5) <= 2 / FULL

    @given(st.permutations(list(range(9))))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance_bit_exact(self, perm):
        codes = [97, 200, 312, 404, 489, 555, 678, 803, 950]
        streams = [_shared(c, seed=77) for c in codes]
        base = median_eval(streams)
        permuted = median_eval([streams[i] for i in perm])
        assert np.array_equal(base.words, permuted.words)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            median_eval([_shared(1)] * 8)


class TestFrameDiff:
    def test_identical_frames_background(self):
        s = _shared(700)
        assert frame_diff_eval(s, s, theta=0.1) == 0

    def test_large_difference_foreground(self):
        a, b = _shared(round(0.9 * FULL)), _shared(round(0.4 * FULL))
        assert frame_diff_eval(a, b, theta=0.1) == 1

    def test_flip_rate_matches_binomial_tail(self):
        from scipy.stats import binom
        length, theta = 1024, 0.1
        a_val, b_val = 0.55, 0.40   # |diff - theta| = 0.05 < 2/sqrt(L)
        diff = abs(a_val - b_val)
        flips = 0
        trials = 10_000
        from stochmem.converters import asc_generate
        for k in range(trials):
            rng = SeedSpec(2001, k, 0, 0)
            a = asc_generate(a_val, length, derive_generator(rng))
            b = asc_generate(b_val, length, derive_generator(SeedSpec(2001, k, 0, 0)))
            # shared generator: xor counts are Binomial(length, diff)
            flips += frame_diff_eval(a, b, theta)
        p_pred = binom.sf(int(np.floor(theta * length)), length, diff)
        measured = flips / trials
        assert abs(measured - p_pred) <= 0.2 * p_pred


class TestBernstein:
    def test_linear_target_exact(self):
        poly, err = fit_bernstein(lambda x: x, 6)
        assert np.allclose(poly.coeffs, [k / 6 for k in range(7)], atol=1e-9)
        assert err < 1e-9

    def test_constant_target(self):
        poly, err = fit_bernstein(lambda x: 0.37, 6)
        assert np.allclose(poly.coeffs, [0.37] * 7, atol=1e-9)

    def test_power_fit_matches_bounded_least_squares_oracle(self):
        from scipy.optimize import lsq_linear
        poly, err = fit_bernstein(lambda x: x ** 0.45, 6)
        grid = np.linspace(0, 1, 1001)
        oracle = lsq_linear(bernstein_basis(grid, 6), grid ** 0.45, bounds=(0, 1))
        assert np.allclose(poly.coeffs, oracle.x, atol=1e-6)
        oracle_err = np.abs(bernstein_basis(grid, 6) @ oracle.x - grid ** 0.45).max()
        assert err == pytest.approx(oracle_err, abs=1e-9)

    def test_power_fit_error_away_from_origin(self):
        # the x**0.45 slope is unbounded at 0; off the singular corner the
        # degree-6 fit is tight
        poly, _ = fit_bernstein(lambda x: x ** 0.45, 6)
        grid = np.linspace(0.05, 1, 500)
        assert np.abs(poly(grid) - grid ** 0.45).max() <= 0.02

    def test_infeasible_target_rejected(self):
        with pytest.raises(ValueError):
            fit_bernstein(lambda x: 1.5 * x, 3)

    def test_coefficient_bounds_enforced(self):
        with pytest.raises(ValueError):
            BernsteinPoly(2, (0.0, 1.2, 0.5))


@pytest.fixture(scope="module")
def poly():
    poly, _ = fit_bernstein(lambda x: x ** 0.45, 6)
    return poly


class TestGamma:

    def _run(self, x, poly, length=1024, seed=5):
        from stochmem.converters import asc_generate
        xs = [asc_generate(x, length, derive_generator(SeedSpec(seed, 0, 0, g)))
              for g in range(6)]
        cs = [asc_generate(c, length, derive_generator(SeedSpec(seed, 0, 0, 16 + k)))
              for k, c in enumerate(poly.coeffs)]
        return estimate_value(gamma_eval(xs, cs))

    def test_zero_input(self, poly):
        est = self._run(0.0, poly)
        assert est == pytest.approx(poly.coeffs[0], abs=4 * np.sqrt(0.25 / 1024))

    def test_one_input(self, poly):
        est = self._run(1.0, poly)
        assert est == pytest.approx(poly.coeffs[6], abs=4 * np.sqrt(0.25 / 1024))

    def test_half_input_near_power_value(self, poly):
        length = 1024
        est = self._run(0.5, poly, length)
        fit_err = abs(poly(0.5) - 0.5 ** 0.45)
        assert abs(est - 0.5 ** 0.45) <= fit_err + 4 / np.sqrt(length)

    def test_expectation_matches_polynomial_on_grid(self, poly):
        length = 4096
        for x in np.linspace(0, 1, 11):
            ests = [self._run(float(x), poly, length, seed=s) for s in range(5)]
            assert abs(np.mean(ests) - poly(x)) <= 4 * np.sqrt(0.25 / (5 * length))

    def test_stream_count_validation(self, poly):
        from stochmem.converters import asc_generate
        xs = [asc_generate(0.5, 64, derive_generator(SeedSpec(1, 0, 0, g)))
              for g in range(6)]
        with pytest.raises(ValueError):
            gamma_eval(xs, xs)


class TestKde:
    def _streams(self, cur_val, hist_vals, length=1024, seed=31):
        from stochmem.converters import asc_generate
        rng = lambda: derive_generator(SeedSpec(seed, 0, 0, 0))
        cur = asc_generate(cur_val, length, rng())
        hist = [asc_generate(v, length, rng()) for v in hist_vals]
        return cur, hist

    def test_all_match_background(self):
        cur, hist = self._streams(0.5, [0.5] * 32)
        assert kde_eval(cur, hist, delta=0.1, theta=0.5) == 0

    def test_all_far_foreground(self):
        cur, hist = self._streams(0.9, [0.1] * 32)
        assert kde_eval(cur, hist, delta=0.1, theta=0.5) == 1

    def test_history_count_enforced(self):
        cur, hist = self._streams(0.5, [0.5] * 31)
        with pytest.raises(ValueError):
            kde_eval(cur, hist, 0.1, 0.25)

    def test_agreement_with_golden_on_clear_margins(self):
        rng = np.random.default_rng(888)
        agree = 0
        trials = 1000
        for k in range(trials):
            cur_val = rng.random()
            hist_vals = rng.random(32)
            density = np.mean(np.abs(cur_val - hist_vals) <= 0.1)
            if abs(density - 0.25) < 2 / 32:
                density = None  # resample below
            while density is None:
                cur_val = rng.random()
                hist_vals = rng.random(32)
                density = np.mean(np.abs(cur_val - hist_vals) <= 0.1)
                if abs(density - 0.25) < 2 / 32:
                    density = None
            golden = int(density < 0.25)
            cur, hist = self._streams(cur_val, hist_vals, length=1024, seed=k)
            agree += kde_eval(cur, hist, 0.1, 0.25) == golden
        assert agree / trials >= 0.97


class TestGolden:
    def test_robert_flat_image_zero(self):
        img = ImageGray.from_array(np.full((16, 16), 0.4))
        assert golden_robert(img).data.max() == 0.0

    def test_gamma_power_values(self):
        img = ImageGray.from_array(np.array([[0.25]]))
        assert golden_gamma(img, 0.45).data[0, 0] == pytest.approx(0.25 ** 0.45)
        assert 0.25 ** 0.45 == pytest.approx(0.5359, abs=1e-4)

    def test_median_order_statistic(self):
        data = np.array([[0.2, 0.2, 0.2],
                         [0.2, 0.2, 0.9],
                         [0.9, 0.9, 0.9]])
        out = golden_median(ImageGray.from_array(data))
        assert out.data[1, 1] == 0.2

    def test_frame_threshold(self):
        cur = ImageGray.from_array(np.array([[0.9, 0.5]]))
        prev = ImageGray.from_array(np.array([[0.4, 0.45]]))
        out = golden_frame(cur, prev, theta=0.1)
        assert out.data.tolist() == [[1.0, 0.0]]

    def test_kde_density(self):
        cur = ImageGray.from_array(np.array([[0.9]]))
        hist = tuple(ImageGray.from_array(np.array([[0.1]])) for _ in range(32))
        out = golden_kde(cur, hist, delta=0.1, theta=0.5)
        assert out.data[0, 0] == 1.0

    def test_dispatcher_validates(self):
        img = ImageGray.from_array(np.full((4, 4), 0.5))
        with pytest.raises(ValueError):
            golden_eval(AppKind.FRAME, AppInputs(image=img), AppParams())


class TestAppParams:
    @pytest.mark.parametrize("field", ("theta", "delta"))
    def test_rejects_negative_threshold(self, field):
        with pytest.raises(ValueError, match=field):
            AppParams(**{field: -0.01})
        assert getattr(AppParams(**{field: 0.0}), field) == 0.0

    def test_rejects_degree_below_one(self):
        with pytest.raises(ValueError, match="bernstein_degree"):
            AppParams(bernstein_degree=0)
        assert AppParams(bernstein_degree=1).bernstein_degree == 1
