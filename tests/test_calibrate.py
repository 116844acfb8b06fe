"""The two calibration fits: the noise sigma against the accuracy gap, and the
access multipliers against the published energy reductions."""

import concurrent.futures
import contextlib
import itertools
import re
from collections import Counter
from dataclasses import astuple, fields, replace
from unittest import mock

import numpy as np
import pytest

from stochmem import calibrate, harness
from stochmem.circuits import AppKind
from stochmem.costs import AccessMultipliers, CostModel, SystemDesign, energy_report
from stochmem.harness import ExperimentConfig
from stochmem.memory import NoiseModel

TINY = ExperimentConfig(dims=(3, 2), length=8)


@contextlib.contextmanager
def _design_runs():
    """A Counter that, on leaving the block, holds how many runs each design made."""
    counts = Counter()
    with mock.patch.object(harness, "run_experiment", wraps=harness.run_experiment) as runs:
        yield counts
    counts.update(call.args[0].design for call in runs.call_args_list)


def _calibrate_counting_designs(target_gap_pp, template, n_seeds):
    """calibrate_noise's result and how many runs each design made."""
    with _design_runs() as runs:
        result = calibrate.calibrate_noise(target_gap_pp, template, n_seeds=n_seeds)
    return result, runs


@pytest.fixture(scope="module")
def default_fit_32x32():
    return _calibrate_counting_designs(0.19, ExperimentConfig(dims=(32, 32)), 5)


def test_default_fit_at_32x32_gives_the_pinned_sigma_and_gap(default_fit_32x32):
    # pinned to the fit that re-ran conv-mtj at every bisection step
    (noise, gap), _ = default_fit_32x32
    assert noise == NoiseModel(0.00625, 0.00625)
    assert gap == 0.18571275994546815


@pytest.mark.parametrize("target,template,n_seeds", [
    (0.19, None, 5),
    (1.0, ExperimentConfig(dims=(8, 6)), 2),
])
def test_conv_mtj_runs_once_per_calibration_whatever_the_step_count(
        default_fit_32x32, target, template, n_seeds):
    if template is None:
        _, runs = default_fit_32x32
    else:
        # 8x6 at 1.0 pp ends 20 steps outside the tolerance: gap 1.0928 pp
        with _design_runs() as runs, pytest.raises(ValueError, match=re.escape(
                "did not converge: gap(0.0186526) = 1.0928pp, target 1.0pp +/- 0.05pp")):
            calibrate.calibrate_noise(target, template, n_seeds=n_seeds)
    evaluations, rest = divmod(runs[SystemDesign.STOCHMEM], 5 * n_seeds)
    assert rest == 0 and evaluations >= 3
    assert runs == {SystemDesign.CONV_MTJ: 5 * n_seeds,
                    SystemDesign.STOCHMEM: 5 * n_seeds * evaluations}


def test_noise_fit_on_two_workers_equals_the_serial_fit_with_one_pool_per_grid():
    template = ExperimentConfig(dims=(6, 5))
    serial, runs = _calibrate_counting_designs(0.5, template, 3)
    assert serial == (NoiseModel(0.015625, 0.015625), 0.49574127488368197)
    evaluations = runs[SystemDesign.STOCHMEM] // 15
    with mock.patch("concurrent.futures.ProcessPoolExecutor",
                    wraps=concurrent.futures.ProcessPoolExecutor) as pools:
        assert calibrate.calibrate_noise(0.5, replace(template, jobs=2), n_seeds=3) == serial
    # the conv-mtj baseline, then one per gap evaluation
    assert pools.call_count == evaluations + 1


def test_noise_fit_follows_the_template_length():
    template = ExperimentConfig(dims=(6, 5), length=40)
    with mock.patch.object(harness, "run_experiment", wraps=harness.run_experiment) as runs:
        # a one-seed fit at 6x5 ends outside the tolerance
        with pytest.raises(ValueError, match=r"did not converge: .* = 0\.2952pp"):
            calibrate.calibrate_noise(0.5, template, n_seeds=1)
    assert {call.args[0].length for call in runs.call_args_list} == {40}


def test_an_unreachable_gap_fails_loudly():
    with pytest.raises(ValueError, match=re.escape(f"gap({calibrate._SIGMA_HI}) =")):
        calibrate.calibrate_noise(1000.0, TINY, n_seeds=1)


@pytest.mark.parametrize("entry", ("median_inaccuracy", "calibrate_noise"))
def test_noise_calibration_rejects_an_empty_seed_grid(entry):
    calls = {
        "median_inaccuracy": lambda: calibrate._median_inaccuracy(TINY, SystemDesign.STOCHMEM,
                                                                  0),
        "calibrate_noise": lambda: calibrate.calibrate_noise(0.19, TINY, n_seeds=0),
    }
    with mock.patch.object(harness, "run_experiment", side_effect=AssertionError("ran")):
        with pytest.raises(ValueError, match="n_seeds must be at least 1, got 0"):
            calls[entry]()


@pytest.mark.parametrize("target,tol,message", [
    (float("nan"), 0.05, "target gap must be nonnegative, got nan"),
    (-0.1, 0.05, "target gap must be nonnegative, got -0.1"),
    (0.19, float("nan"), "gap tolerance must be nonnegative, got nan"),
])
def test_calibrate_noise_rejects_a_nan_or_negative_target_or_tolerance(target, tol, message):
    with mock.patch.object(harness, "run_experiment", side_effect=AssertionError("ran")):
        with pytest.raises(ValueError, match=message):
            calibrate.calibrate_noise(target, TINY, tol_pp=tol)


def test_calibrate_noise_rejects_a_negative_tolerance():
    # no gap is ever within a negative tolerance, so bisection could only run out
    with mock.patch.object(harness, "run_experiment", side_effect=AssertionError("ran")):
        with pytest.raises(ValueError, match="tolerance must be nonnegative, got -0.01"):
            calibrate.calibrate_noise(0.19, ExperimentConfig(dims=(3, 2)), tol_pp=-0.01)


@pytest.mark.parametrize("targets,multipliers,reductions", [
    ((45.7, 11.1), (0.15, 0.15, 1.0, 0.45), (45.75161610348495, 11.100451586150816)),
    ((50.0, 5.0), (0.8, 0.2, 0.75, 0.15), (50.020358549417686, 4.945995408413961)),
    ((40.0, 20.0), (0.15, 0.15, 0.75, 0.75), (40.021854505663114, 20.08629616013312)),
])
def test_access_fit_gives_the_pinned_multipliers_and_reductions(targets, multipliers,
                                                                reductions):
    mult, red_ml, red_sm = calibrate.calibrate_access(*targets)
    assert mult == AccessMultipliers(*multipliers)
    assert (red_ml, red_sm) == reductions
    assert all(type(getattr(mult, f.name)) is float for f in fields(mult))
    assert type(red_ml) is float and type(red_sm) is float


def test_access_fit_equals_the_per_point_search_it_replaces():
    # the loop over the grid in product order, each point's energies built
    # with the same operations as the broadcast
    axes = ("adc", "write", "read", "dac")

    def totals(mult):
        model = CostModel(multipliers=mult)
        return np.array([[energy_report(d, a, 1024, model.profiles[a].n_streams, model).total
                          for d in SystemDesign] for a in AppKind])

    base = totals(AccessMultipliers(0.0, 0.0, 0.0, 0.0))
    slopes = [totals(AccessMultipliers(**{a: float(a == ax) for a in axes})) - base
              for ax in axes]
    steps = [round(0.05 * k, 2) for k in range(1, 21)]
    points = []
    for vals in itertools.product(steps, steps, (0.5, 0.75, 1.0), steps):
        lfsr, mtj, stoch = (base + sum(v * s for v, s in zip(vals, slopes))).T
        if np.all(stoch < mtj) and np.all(mtj < lfsr):
            points.append((vals, 100 * (1 - float(np.mean(mtj / lfsr))),
                           100 * (1 - float(np.mean(stoch / mtj)))))
    for targets in ((45.7, 11.1), (30.0, 2.5), (55.5, 15.0), (62.0, 0.0), (20.0, 25.0)):
        best = min(points, key=lambda p: abs(p[1] - targets[0]) + abs(p[2] - targets[1]))
        mult, red_ml, red_sm = calibrate.calibrate_access(*targets)
        assert (astuple(mult), red_ml, red_sm) == best
