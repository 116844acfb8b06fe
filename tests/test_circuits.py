import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stochmem.bitstream import pack_bool_matrix, popcount_rows
from stochmem.circuits import (MAX_BERNSTEIN_DEGREE, READ_NOISE_BASE, WIRING, WRITE_NOISE_BASE,
                               AppKind, AppParams, MEDIAN9_PAIRS,
                               bernstein_basis, fit_bernstein, frame_batch, gamma_eval,
                               golden_eval, kde_batch, median9_reference, median_batch,
                               robert_batch, stream_plan)
from stochmem.converters import asc_generate, dsc_generate
from stochmem.rng import derive_state

FULL = 1023


def _shared(code, seed=11):
    """Streams from one generator are correlated by construction."""
    return dsc_generate(code, FULL, seed)


def _bern(p, length, seed_fields):
    return asc_generate(p, length, derive_state(*seed_fields))


def _row(bits) -> np.ndarray:
    """One stream's bits as a one-row packed circuit operand."""
    return pack_bool_matrix(np.asarray(bits, dtype=bool)[None])


def _value(row: np.ndarray, length: int = FULL) -> float:
    return popcount_rows(row)[0] / length


def _gate(op, a, b) -> float:
    """Value of a word-level gate applied to the packed rows of a and b."""
    return _value(op(_row(a), _row(b)), len(a))


class TestGates:
    """The word-level gates the circuits are built from, on streams that
    share one generator (the correlation contract of XOR, AND and OR)."""

    def test_xor_correlated_absolute_difference(self):
        a, b = _shared(round(0.75 * FULL)), _shared(round(0.25 * FULL))
        assert abs(_gate(np.bitwise_xor, a, b) - 0.5) <= 1 / FULL

    def test_and_correlated_is_min(self):
        a, b = _shared(round(0.8 * FULL)), _shared(round(0.5 * FULL))
        assert abs(_gate(np.bitwise_and, a, b) - 0.5) <= 1 / FULL

    def test_or_correlated_is_max(self):
        a, b = _shared(round(0.8 * FULL)), _shared(round(0.5 * FULL))
        assert abs(_gate(np.bitwise_or, a, b) - 0.8) <= 1 / FULL

    def test_correlated_identity_grid(self):
        """Exhaustive one-period check on a 32x32 code grid."""
        codes = np.linspace(0, FULL, 32).astype(int)
        streams = {c: _shared(int(c), seed=21) for c in codes}
        for ca, cb in itertools.product(codes[::4], codes[::4]):
            a, b = streams[ca], streams[cb]
            xor = _gate(np.bitwise_xor, a, b)
            assert abs(xor - abs(ca - cb) / FULL) <= 1 / FULL
            mn = _gate(np.bitwise_and, a, b)
            assert abs(mn - min(ca, cb) / FULL) <= 1 / FULL
            mx = _gate(np.bitwise_or, a, b)
            assert abs(mx - max(ca, cb) / FULL) <= 1 / FULL


class TestRobert:
    def test_flat_region_no_edge(self):
        s = _row(_shared(500))
        sel = _row(_shared(512, seed=99))
        assert _value(robert_batch(s, s, s, s, sel)) == 0.0

    def test_opposite_corners(self):
        length = 1024
        p00 = _row(np.ones(length))
        p11 = _row(np.zeros(length))
        pd = _row(_bern(0.4, length, (5, 0, 0, 1)))
        sel = _row(_bern(0.5, length, (5, 0, 0, 8)))
        out = robert_batch(p00, pd, pd, p11, sel)
        # golden 0.5*(|1-0| + |0.4-0.4|) = 0.5
        assert abs(_value(out, length) - 0.5) <= 4 * np.sqrt(0.25 / length)

    def test_monte_carlo_against_golden(self):
        length = 1024
        rng = np.random.default_rng(42)
        errs = []
        for trial in range(500):
            vals = rng.random(4)
            g = 0.5 * (abs(vals[0] - vals[3]) + abs(vals[1] - vals[2]))
            ua = asc_generate(vals[0], length, derive_state(trial, 0, 0, 0))
            da = asc_generate(vals[3], length, derive_state(trial, 0, 0, 0))
            ub = asc_generate(vals[1], length, derive_state(trial, 0, 0, 1))
            db = asc_generate(vals[2], length, derive_state(trial, 0, 0, 1))
            s = asc_generate(0.5, length, derive_state(trial, 0, 0, 8))
            est = _value(robert_batch(*map(_row, (ua, ub, db, da, s))), length)
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
        streams = [_row(_shared(400))] * 9
        assert _value(median_batch(streams)) == pytest.approx(400 / FULL)

    def test_decade_values(self):
        codes = [round(v * FULL) for v in (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)]
        streams = [_row(_shared(c)) for c in codes]
        assert abs(_value(median_batch(streams)) - 0.5) <= 2 / FULL

    def test_salt_outlier_discarded(self):
        codes = [round(0.5 * FULL)] * 8 + [FULL]
        streams = [_row(_shared(c)) for c in codes]
        assert abs(_value(median_batch(streams)) - 0.5) <= 2 / FULL

    @given(st.permutations(list(range(9))))
    @settings(max_examples=30, deadline=None)
    def test_permutation_invariance_bit_exact(self, perm):
        codes = [97, 200, 312, 404, 489, 555, 678, 803, 950]
        streams = [_row(_shared(c, seed=77)) for c in codes]
        base = median_batch(streams)
        permuted = median_batch([streams[i] for i in perm])
        assert np.array_equal(base, permuted)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            median_batch([_row(_shared(1))] * 8)


class TestFrameDiff:
    def test_identical_frames_background(self):
        s = _row(_shared(700))
        assert frame_batch(s, s, 0.1, FULL)[0] == 0

    def test_large_difference_foreground(self):
        a, b = _row(_shared(round(0.9 * FULL))), _row(_shared(round(0.4 * FULL)))
        assert frame_batch(a, b, 0.1, FULL)[0] == 1

    def test_flip_rate_matches_binomial_tail(self):
        from scipy.stats import binom
        length, theta = 1024, 0.1
        a_val, b_val = 0.55, 0.40   # |diff - theta| = 0.05 < 2/sqrt(L)
        diff = abs(a_val - b_val)
        flips = 0
        trials = 10_000
        for k in range(trials):
            state = derive_state(2001, k)
            a = asc_generate(a_val, length, state)
            b = asc_generate(b_val, length, state)
            # shared generator: xor counts are Binomial(length, diff)
            flips += frame_batch(_row(a), _row(b), theta, length)[0]
        p_pred = binom.sf(int(np.floor(theta * length)), length, diff)
        measured = flips / trials
        assert abs(measured - p_pred) <= 0.2 * p_pred


def _bernstein(coeffs, x):
    """The Bernstein polynomial of coeffs at x."""
    return bernstein_basis(x, len(coeffs) - 1) @ np.asarray(coeffs)


class TestBernstein:
    def test_linear_target_exact(self):
        coeffs, err = fit_bernstein(lambda x: x, 6)
        assert np.allclose(coeffs, [k / 6 for k in range(7)], atol=1e-9)
        assert err < 1e-9

    def test_constant_target(self):
        coeffs, err = fit_bernstein(lambda x: 0.37, 6)
        assert np.allclose(coeffs, [0.37] * 7, atol=1e-9)

    @pytest.mark.parametrize("degree", range(1, 17))
    def test_power_fit_matches_bounded_least_squares_oracle(self, degree):
        from scipy.optimize import lsq_linear
        coeffs, err = fit_bernstein(lambda x: x ** 0.45, degree)
        grid = np.linspace(0, 1, 1001)
        basis = bernstein_basis(grid, degree)
        oracle = lsq_linear(basis, grid ** 0.45, bounds=(0, 1))
        rss = lambda c: float(((basis @ np.asarray(c) - grid ** 0.45) ** 2).sum())
        assert rss(coeffs) <= rss(oracle.x) * (1 + 1e-6)
        if degree == 6:
            assert np.allclose(coeffs, oracle.x, atol=1e-6)
            oracle_err = np.abs(basis @ oracle.x - grid ** 0.45).max()
            assert err == pytest.approx(oracle_err, abs=1e-9)

    def test_power_fit_error_away_from_origin(self):
        # the x**0.45 slope is unbounded at 0; off the singular corner the
        # degree-6 fit is tight
        coeffs, _ = fit_bernstein(lambda x: x ** 0.45, 6)
        grid = np.linspace(0.05, 1, 500)
        assert np.abs(_bernstein(coeffs, grid) - grid ** 0.45).max() <= 0.02

    def test_infeasible_target_rejected(self):
        with pytest.raises(ValueError):
            fit_bernstein(lambda x: 1.5 * x, 3)

    @pytest.mark.parametrize("target", (lambda x: x ** 0.45, lambda x: 0.5 + 0.5 * np.sin(9 * x),
                                        lambda x: float(x > 0.5)), ids=("power", "sine", "step"))
    @pytest.mark.parametrize("degree", (1, 6, MAX_BERNSTEIN_DEGREE))
    def test_fit_gives_degree_plus_one_float_coefficients_in_the_unit_interval(self, target,
                                                                                degree):
        # a stream encodes each coefficient as a probability
        coeffs, _ = fit_bernstein(target, degree)
        assert isinstance(coeffs, tuple) and len(coeffs) == degree + 1
        assert all(type(c) is float and 0.0 <= c <= 1.0 for c in coeffs)

    def test_degree_below_one_rejected(self):
        with pytest.raises(ValueError, match="^degree must be at least 1$"):
            fit_bernstein(lambda x: x, 0)


@pytest.fixture(scope="module")
def coeffs():
    coeffs, _ = fit_bernstein(lambda x: x ** 0.45, 6)
    return coeffs


class TestGamma:

    def _run(self, x, coeffs, length=1024, seed=5):
        xs = [asc_generate(x, length, derive_state(seed, 0, 0, g))
              for g in range(6)]
        cs = [asc_generate(c, length, derive_state(seed, 0, 0, 16 + k))
              for k, c in enumerate(coeffs)]
        return gamma_eval(xs, cs).mean()

    def test_zero_input(self, coeffs):
        est = self._run(0.0, coeffs)
        assert est == pytest.approx(coeffs[0], abs=4 * np.sqrt(0.25 / 1024))

    def test_one_input(self, coeffs):
        est = self._run(1.0, coeffs)
        assert est == pytest.approx(coeffs[6], abs=4 * np.sqrt(0.25 / 1024))

    def test_half_input_near_power_value(self, coeffs):
        length = 1024
        est = self._run(0.5, coeffs, length)
        fit_err = abs(_bernstein(coeffs, 0.5) - 0.5 ** 0.45)
        assert abs(est - 0.5 ** 0.45) <= fit_err + 4 / np.sqrt(length)

    def test_expectation_matches_polynomial_on_grid(self, coeffs):
        length = 4096
        for x in np.linspace(0, 1, 11):
            ests = [self._run(float(x), coeffs, length, seed=s) for s in range(5)]
            assert abs(np.mean(ests) - _bernstein(coeffs, x)) <= 4 * np.sqrt(0.25 / (5 * length))

    def test_stream_count_validation(self):
        xs = [asc_generate(0.5, 64, derive_state(1, 0, 0, g))
              for g in range(6)]
        with pytest.raises(ValueError):
            gamma_eval(xs, xs)


class TestKde:
    def _streams(self, cur_val, hist_vals, length=1024, seed=31):
        """Packed rows of cur and of the history, all from one generator."""
        rng = lambda: derive_state(seed, 0, 0, 0)
        cur = _row(asc_generate(cur_val, length, rng()))
        hist = [_row(asc_generate(v, length, rng())) for v in hist_vals]
        return cur, hist

    def test_all_match_background(self):
        cur, hist = self._streams(0.5, [0.5] * 32)
        assert kde_batch(cur, hist, 0.1, 0.5, 1024)[0] == 0

    def test_all_far_foreground(self):
        cur, hist = self._streams(0.9, [0.1] * 32)
        assert kde_batch(cur, hist, 0.1, 0.5, 1024)[0] == 1

    def test_history_count_enforced(self):
        cur, hist = self._streams(0.5, [0.5] * 31)
        with pytest.raises(ValueError):
            kde_batch(cur, hist, 0.1, 0.25, 1024)

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
            agree += kde_batch(cur, hist, 0.1, 0.25, 1024)[0] == golden
        assert agree / trials >= 0.97


class TestGolden:
    def test_robert_flat_image_zero(self):
        planes = np.full((4, 16, 16), 0.4)
        assert golden_eval(AppKind.ROBERT, planes).max() == 0.0

    def test_gamma_power_values(self):
        planes = np.array([[[0.25]]])
        out = golden_eval(AppKind.GAMMA, planes, AppParams(gamma_exponent=0.45))
        assert out[0, 0] == pytest.approx(0.25 ** 0.45)
        assert 0.25 ** 0.45 == pytest.approx(0.5359, abs=1e-4)

    def test_median_order_statistic(self):
        window = np.array([[0.2, 0.2, 0.2],
                           [0.2, 0.2, 0.9],
                           [0.9, 0.9, 0.9]])
        out = golden_eval(AppKind.MEDIAN, window.reshape(9, 1, 1))
        assert out[0, 0] == 0.2

    def test_frame_threshold(self):
        planes = np.array([[[0.9, 0.5]],
                           [[0.4, 0.45]]])
        out = golden_eval(AppKind.FRAME, planes, AppParams(theta=0.1))
        assert out.tolist() == [[1.0, 0.0]]

    def test_kde_density(self):
        planes = np.array([0.9] + [0.1] * 32).reshape(33, 1, 1)
        out = golden_eval(AppKind.KDE, planes, AppParams(delta=0.1, theta=0.5))
        assert out[0, 0] == 1.0

    def test_dispatcher_validates(self):
        # one plane short of what each app reads
        for app, count in ((AppKind.ROBERT, 3), (AppKind.MEDIAN, 8), (AppKind.FRAME, 1),
                           (AppKind.GAMMA, 0), (AppKind.KDE, 32)):
            with pytest.raises(ValueError, match=f"{app.value} reads {count + 1} operand "
                                                 f"slots, got {count}"):
                golden_eval(app, np.full((count, 4, 4), 0.5), AppParams())


class TestAppParams:
    @pytest.mark.parametrize("field", ("theta", "delta"))
    def test_rejects_negative_threshold(self, field):
        # outside [0, 1] frame and kde give a constant image
        for value in (-0.01, 1.01, float("inf"), float("nan")):
            with pytest.raises(ValueError, match=re.escape(f"{field} must lie in [0, 1], got "
                                                           f"{value}")):
                AppParams(**{field: value})
        for value in (0.0, 1.0):
            assert getattr(AppParams(**{field: value}), field) == value

    def test_rejects_degree_below_one(self):
        with pytest.raises(ValueError, match="bernstein_degree"):
            AppParams(bernstein_degree=0)
        assert AppParams(bernstein_degree=1).bernstein_degree == 1

    @pytest.mark.parametrize("value", (-1.0, float("nan"), float("inf")))
    def test_rejects_a_negative_or_non_finite_gamma_exponent(self, value):
        with pytest.raises(ValueError, match=f"gamma_exponent .* got {value}"):
            AppParams(gamma_exponent=value)
        assert AppParams(gamma_exponent=0.0).gamma_exponent == 0.0


def test_stream_identities_overlap_only_at_kde_id_96():
    """Every app at every degree, from the wiring table alone: stream groups lie
    below the write-noise base, the write- and read-noise ids of the slots a
    plan streams fill [base, base + slots), and the one id given twice on a
    stochmem block is 96, kde's slot-32 write noise and slot-0 read noise."""
    shared = {}
    for app, degree in itertools.product(AppKind, range(1, MAX_BERNSTEIN_DEGREE + 1)):
        plan = stream_plan(app, AppParams(bernstein_degree=degree))
        assert len(plan.groups) == len(plan.slots) + len(plan.consts)
        assert all(0 <= g < WRITE_NOISE_BASE for g in plan.groups)
        slots = WIRING[app].slots
        streamed = set(plan.slots)
        noise = []
        for base in (WRITE_NOISE_BASE, READ_NOISE_BASE):
            ids = {base + slot for slot in streamed}
            assert ids == set(range(base, base + slots))
            noise += sorted(ids)
        ids = sorted(set(plan.groups)) + noise
        if len(ids) != len(set(ids)):
            shared[app, degree] = {i for i in ids if ids.count(i) > 1}
    assert shared == {(AppKind.KDE, d): {96} for d in range(1, MAX_BERNSTEIN_DEGREE + 1)}


def test_window_offsets_lie_within_one_pixel():
    # harness.resolve_inputs pads the current frame by one pixel for every window
    assert {d for w in WIRING.values() for offset in w.window for d in offset} == {-1, 0, 1}
