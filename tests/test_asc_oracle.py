"""Runs on the ASC designs against their expected inaccuracy (asc_oracle.py)."""

from dataclasses import replace

import numpy as np
import pytest

from asc_oracle import (bit_probabilities, expected_inaccuracy, kde_exact, kde_exact_counts,
                        kde_samples)
from stochmem import harness
from stochmem.circuits import GROUP_SELECT, KDE_HISTORY, AppKind, AppParams, stream_plan
from stochmem.costs import SystemDesign
from stochmem.harness import ExperimentConfig, run_experiment
from stochmem.images import ImageGray, save_pgm

ASC_DESIGNS = (SystemDesign.CONV_MTJ, SystemDesign.STOCHMEM)
APPS = (AppKind.ROBERT, AppKind.MEDIAN, AppKind.FRAME, AppKind.GAMMA, AppKind.KDE)

# A run's inaccuracy is the mean of its pixels' errors, which are independent
# and bounded.  Whatever their distribution, Chebyshev's inequality bounds
# P(|z| > 4) by 1/16; for the near-normal mean of many pixels it is 6.3e-5,
# 2.5e-3 over the 40 runs below.  Each run is fixed by its seed, and kde's
# mean and SD are exact (kde_exact_counts), as are the other apps', so the
# test cannot flake; a circuit whose streams are not Bernoulli(q) with the
# oracle's q moves z by the bias over the SD
# (test_an_independent_robert_cross_pair_fails_the_z_test).  Seeds 1000003
# apart at 16x16 gave z of mean -0.12 to 0.20 and SD 0.80 to 1.02 over 40
# seeds, for median and robert at L=63, 300; kde on the crop gave |z| <= 1.51
# at seeds 1, 2, 3, 1000004 and 2000007, L=1, 63, 65 and 300.
Z_BOUND = 4


def _config(app: AppKind, design: SystemDesign, length: int, video_crop) -> ExperimentConfig:
    # the synthetic video is still at small dims, so frame and kde read the
    # cropped one, where their outputs vary (video_crop.py)
    video = app in (AppKind.FRAME, AppKind.KDE)
    inputs = {"input_path": str(video_crop)} if video else {"dims": (16, 16)}
    return ExperimentConfig(app=app, design=design, length=length, **inputs)


def _z(cfg: ExperimentConfig) -> float:
    mean, sd = expected_inaccuracy(cfg)
    assert sd > 0
    return (run_experiment(cfg).inaccuracy_percent - mean) / sd


@pytest.mark.parametrize("length", (1, 63, 65, 300))
@pytest.mark.parametrize("design", ASC_DESIGNS, ids=lambda d: d.value)
@pytest.mark.parametrize("app", APPS, ids=lambda a: a.value)
def test_asc_runs_match_their_expected_inaccuracy(app, design, length, video_crop):
    assert abs(_z(_config(app, design, length, video_crop))) <= Z_BOUND


@pytest.mark.parametrize("length", (1, 63, 300))
@pytest.mark.parametrize("design", ASC_DESIGNS, ids=lambda d: d.value)
def test_gamma_at_exponent_zero_matches_its_expected_inaccuracy(design, length):
    # the fit of x ** 0 rounds its coefficients just below 1, so the Bernstein
    # sum q can round just past 1 (by up to 9e-16); clipped, the expected
    # inaccuracy is about 2e-14 % with an SD of 5e-9 to 9e-8 %
    cfg = ExperimentConfig(app=AppKind.GAMMA, design=design, length=length, dims=(16, 16),
                           params=AppParams(gamma_exponent=0.0))
    assert abs(_z(cfg)) <= Z_BOUND


@pytest.mark.parametrize("design", ASC_DESIGNS, ids=lambda d: d.value)
def test_kde_samples_match_the_exact_form_at_length_one(design, video_crop):
    # at L=1 the cell of the one draw decides each pixel's output, so the
    # sampled mean must meet the exact one within its Monte-Carlo error
    cfg = _config(AppKind.KDE, design, 1, video_crop)
    mean, sd = kde_exact(cfg)
    runs = kde_samples(cfg)
    assert sd > 0
    assert abs(runs.mean() - mean) <= 4 * runs.std() / np.sqrt(runs.size)
    assert runs.std() == pytest.approx(sd, rel=0.1)


@pytest.mark.parametrize("length", (1, 63, 300))
@pytest.mark.parametrize("design", ASC_DESIGNS, ids=lambda d: d.value)
def test_exact_kde_counts_match_their_samples(design, length, video_crop):
    # the joint law of the match counts above and below the current level,
    # against 4000 multinomial samples of the cell counts; the samples'
    # means sat within 1.8 Monte-Carlo standard errors of it at L = 1 to 1024
    cfg = _config(AppKind.KDE, design, length, video_crop)
    mean, sd = kde_exact_counts(cfg)
    runs = kde_samples(cfg)
    assert sd > 0
    assert abs(runs.mean() - mean) <= 4 * runs.std() / np.sqrt(runs.size)
    assert runs.std() == pytest.approx(sd, rel=0.1)
    if length == 1:
        assert (mean, sd) == pytest.approx(kde_exact(cfg), rel=1e-12)


@pytest.mark.parametrize("design", ASC_DESIGNS, ids=lambda d: d.value)
def test_a_history_apart_from_the_current_frame_fails_the_kde_z_test(design, monkeypatch,
                                                                     video_crop):
    # history streams in a group of their own: each XOR distance is then
    # Binomial(L, a + b - 2ab), not the count between the two levels.  At L=1
    # the bias hides in the spread of one draw (z about 1 to 1.5); at L=300 it
    # does not
    def history_apart(app, params):
        return replace(stream_plan(app, params), groups=(0,) + (1,) * KDE_HISTORY)

    cfg = _config(AppKind.KDE, design, 300, video_crop)
    assert abs(_z(cfg)) <= Z_BOUND
    monkeypatch.setattr(harness, "stream_plan", history_apart)
    assert abs(_z(cfg)) > Z_BOUND


@pytest.mark.parametrize("design", ASC_DESIGNS, ids=lambda d: d.value)
def test_an_independent_robert_cross_pair_fails_the_z_test(design, monkeypatch, video_crop):
    # p00 and p11 in groups 0 and 2: their XOR has probability a + d - 2ad,
    # not the |a - d| of one shared generator
    def split_pair(app, params):
        return replace(stream_plan(app, params), groups=(0, 1, 1, 2, GROUP_SELECT))

    cfg = _config(AppKind.ROBERT, design, 65, video_crop)
    assert abs(_z(cfg)) <= Z_BOUND
    monkeypatch.setattr(harness, "stream_plan", split_pair)
    assert abs(_z(cfg)) > Z_BOUND


# gamma's streamed coefficients are not all 0 or 1 (0.094 to 1.0 after the
# DAC), so its bits are uncertain at any input
@pytest.mark.parametrize("level", (0.0, 1.0))
@pytest.mark.parametrize("app", (AppKind.ROBERT, AppKind.MEDIAN, AppKind.FRAME),
                         ids=lambda a: a.value)
def test_levels_at_zero_or_one_give_sd_zero(app, level, tmp_path):
    # conv-mtj converts a black or white input exactly, so every output bit is
    # certain and the run gives the oracle's mean
    for k in range(2):
        save_pgm(ImageGray(np.full((3, 4), level)), tmp_path / f"frame_{k}.pgm")
    cfg = ExperimentConfig(app=app, design=SystemDesign.CONV_MTJ, length=65,
                           input_path=str(tmp_path))
    assert set(np.unique(bit_probabilities(cfg)[0])) <= {0.0, 1.0}
    mean, sd = expected_inaccuracy(cfg)
    assert sd == 0
    assert run_experiment(cfg).inaccuracy_percent == pytest.approx(mean, abs=1e-12)
