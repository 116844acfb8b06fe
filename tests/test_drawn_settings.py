"""Runs at drawn model settings against the two oracles: the conv-lfsr window
counts (lfsr_oracle.py) and the ASC designs' expected inaccuracy
(asc_oracle.py).  The fixtures and the other oracle tests pin the default
AppParams and noise; these draw them.

Hypothesis runs derandomized, so each test makes the same examples on every
run and a failure reproduces.  Seeds are 1,000,003 apart: neighbouring seeds
share generator states (ROADMAP item 2), far-apart ones give independent
runs.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from asc_oracle import expected_inaccuracy
from lfsr_oracle import lfsr_output
from stochmem.circuits import MAX_BERNSTEIN_DEGREE, AppKind, AppParams
from stochmem.costs import SystemDesign
from stochmem.harness import run_experiment
from stochmem.memory import NoiseModel
from test_asc_oracle import _config
from test_harness import _planes

SEED_STEP = 1_000_003
_DRAWN = settings(derandomize=True, database=None, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])

_fractions = st.floats(0.0, 1.0)
_seeds = st.integers(0, 999).map(lambda k: 1 + k * SEED_STEP)


@pytest.mark.parametrize("app", (AppKind.MEDIAN, AppKind.FRAME, AppKind.KDE),
                         ids=lambda a: a.value)
@settings(_DRAWN, max_examples=15)
@given(theta=_fractions, delta=_fractions, length=st.integers(1, 2000), seed=_seeds)
def test_conv_lfsr_at_drawn_settings_equals_the_window_counts(app, video_crop, theta, delta,
                                                              length, seed):
    # the 16x16 scene, or for frame and kde the video crop
    cfg = replace(_config(app, SystemDesign.CONV_LFSR, length, video_crop), global_seed=seed,
                  params=AppParams(theta=theta, delta=delta))
    assert np.array_equal(run_experiment(cfg).output.data,
                          lfsr_output(app, _planes(cfg), seed, length, cfg.params))


# Basis of the bound: a run's inaccuracy is the mean of its pixels' errors,
# which are independent and bounded, so Chebyshev's inequality bounds P(|z| >
# 4) by 1/16 whatever their law, and for a near-normal mean it is 6.3e-5, or
# about 6e-3 over the 100 examples below.  The examples are fixed
# (derandomized), so the test cannot flake; they gave 97 finite z of mean
# 0.06, SD 0.83 and max |z| 2.36.  A run whose every output bit is certain
# (frame at theta = 1, kde at theta = 0, levels at 0 or 1) has SD 0 and must
# give the oracle's mean.
Z_BOUND = 4
# kde's exact form holds (pixel, 34, 34, floor(delta L) + 1) arrays, 28 MB an
# array at this length on the 30-pixel crop
_KDE_MAX_LENGTH = 100


@pytest.mark.parametrize("design", (SystemDesign.CONV_MTJ, SystemDesign.STOCHMEM),
                         ids=lambda d: d.value)
@pytest.mark.parametrize("app", list(AppKind), ids=lambda a: a.value)
@settings(_DRAWN, max_examples=10)
@given(theta=_fractions, delta=_fractions, gamma=st.floats(0.0, 5.0),
       degree=st.integers(1, MAX_BERNSTEIN_DEGREE), write_sigma=st.floats(0.0, 0.3),
       read_sigma=st.floats(0.0, 0.3), length=st.integers(1, 2000), seed=_seeds)
def test_asc_runs_at_drawn_settings_match_their_expected_inaccuracy(
        app, design, video_crop, theta, delta, gamma, degree, write_sigma, read_sigma, length,
        seed):
    if app is AppKind.KDE:
        length = 1 + length % _KDE_MAX_LENGTH
    cfg = replace(_config(app, design, length, video_crop), global_seed=seed,
                  noise=NoiseModel(write_sigma, read_sigma),
                  params=AppParams(theta, delta, gamma, degree))
    mean, sd = expected_inaccuracy(cfg)
    got = run_experiment(cfg).inaccuracy_percent
    if sd == 0:
        assert got == pytest.approx(mean, abs=1e-9)
    else:
        assert abs(got - mean) / sd <= Z_BOUND
