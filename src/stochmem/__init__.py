"""Bit-accurate stochastic-computing simulator and hardware cost model."""

from .circuits import AppKind, AppParams, fit_bernstein, gamma_eval, golden_eval
from .converters import adc_quantize, asc_generate, dac_dequantize, dsc_generate, requantize
from .costs import (AccessMultipliers, AppProfile, CellCost, CostModel, CostReport, SystemDesign,
                    UnitCost, area_report, energy_report, share_breakdown)
from .calibrate import calibrate_access, calibrate_noise
from .harness import ExperimentConfig, ExperimentReport, run_experiment, sweep
from .images import ImageGray, error_metric, load_pgm, save_pgm
from .lfsr import LfsrSpec, lfsr_values
from .memory import NoiseModel, mem_read, mem_read_block, mem_write, mem_write_block
from .rng import derive_state, gauss, uniforms
from .synth import gen_test_inputs

__version__ = "0.1.0"
