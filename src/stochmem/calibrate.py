"""The two fits behind the paper's headline numbers.

calibrate_noise bisects the read/write sigma against the five-app gap of
stochmem's over conv-mtj's median inaccuracy.  conv-mtj keeps its operands in
ideal SRAM, so its medians do not depend on sigma: they are measured once per
fit, and each step runs only stochmem.  The default `stochmem calibrate --mode
noise` (128x128, L=1024, 5 seeds) gives sigma 0.00625 and 0.1996 pp after 6
gap evaluations.  Energy is linear in the access multipliers, so
calibrate_access scores its whole grid in one numpy broadcast."""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import harness
from .circuits import AppKind
from .costs import AccessMultipliers, SystemDesign, default_profile, energy_report
from .harness import ExperimentConfig
from .memory import NoiseModel

# upper end of the sigma search, which halves the range at most 20 times
_SIGMA_HI = 0.1


def _median_inaccuracy(template: ExperimentConfig, design: SystemDesign,
                       n_seeds: int) -> np.ndarray:
    """Per-app (AppKind order) median inaccuracy in percent over n_seeds seeds."""
    results = harness._run_grid(template, list(AppKind), [design], (template.length,),
                                n_seeds, template.jobs)
    return np.median(np.array([r[2] for r in results]).reshape(len(AppKind), n_seeds), axis=1)


def calibrate_noise(target_gap_pp: float, template: ExperimentConfig | None = None,
                    tol_pp: float = 0.05, n_seeds: int = 5) -> tuple[NoiseModel, float]:
    """Bisect the shared read/write sigma until the gap is within tol_pp of
    target_gap_pp; return the noise model and its gap.  Sigma 0 stands if its
    gap already reaches the target."""
    if target_gap_pp < 0:
        raise ValueError("target gap must be nonnegative")
    if tol_pp < 0:
        raise ValueError(f"gap tolerance must be nonnegative, got {tol_pp}")
    template = template or ExperimentConfig()
    baseline = _median_inaccuracy(template, SystemDesign.CONV_MTJ, n_seeds)
    gap = lambda s: float(np.mean(_median_inaccuracy(
        replace(template, noise=NoiseModel(s, s)), SystemDesign.STOCHMEM, n_seeds) - baseline))
    low = target_gap_pp - tol_pp
    lo, hi = 0.0, _SIGMA_HI
    sigma, g = lo, gap(lo)
    if g < low and (g_hi := gap(hi)) < low:
        raise ValueError(f"target gap {target_gap_pp}pp unreachable: gap({hi}) = {g_hi:.3f}pp")
    for _ in range(20):
        # sigma cannot go below 0, so there a gap above the target also stands
        if g >= low if sigma == 0.0 else abs(g - target_gap_pp) <= tol_pp:
            break
        lo, hi = (sigma, hi) if g < target_gap_pp else (lo, sigma)
        sigma = 0.5 * (lo + hi)
        g = gap(sigma)
    return NoiseModel(sigma, sigma), g


def calibrate_access(target_mtj_reduction: float = 45.7,
                     target_stoch_reduction: float = 11.1,
                     length: int = 1024) -> tuple[AccessMultipliers, float, float]:
    """Grid-search one multiplier set (adc, write, dac over 0.05..1.0 by 0.05,
    read over 0.5, 0.75, 1.0) against the published energy reductions in
    percent: of the points where stochmem < conv-mtj < conv-lfsr for every app,
    the nearest (first in product order on a tie); return it and its reductions."""
    def totals(mult: AccessMultipliers) -> np.ndarray:
        return np.array([[energy_report(d, default_profile(a), length, multipliers=mult).total
                          for d in SystemDesign] for a in AppKind])

    base = totals(AccessMultipliers(0.0, 0.0, 0.0, 0.0))
    slopes = [totals(AccessMultipliers(*unit)) - base for unit in np.eye(4)]
    steps = np.round(np.arange(0.05, 1.01, 0.05), 2)
    # (point, axis) in product order, the last axis varying fastest
    grid = np.stack(np.meshgrid(steps, steps, (0.5, 0.75, 1.0), steps, indexing="ij"),
                    axis=-1).reshape(-1, 4)
    lfsr, mtj, stoch = np.moveaxis(
        base + sum(grid[:, k, None, None] * s for k, s in enumerate(slopes)), 2, 0)
    ordered = np.all(stoch < mtj, axis=1) & np.all(mtj < lfsr, axis=1)
    red_ml = 100 * (1 - np.mean(mtj / lfsr, axis=1))
    red_sm = 100 * (1 - np.mean(stoch / mtj, axis=1))
    score = np.abs(red_ml - target_mtj_reduction) + np.abs(red_sm - target_stoch_reduction)
    best = int(np.argmin(np.where(ordered, score, np.inf)))
    return (AccessMultipliers(*(float(v) for v in grid[best])),
            float(red_ml[best]), float(red_sm[best]))
