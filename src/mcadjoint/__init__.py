"""Monte-Carlo adjoint gradient estimation for calibration losses.

Building blocks for computing gradients of losses of the form
g = 0.5 * sum_i (E y_i - C_i)^2 by tape-based reverse-mode differentiation
under Monte-Carlo sampling, with three estimators of different cost and
variance, and an L-BFGS driver that calibrates a piecewise-linear
volatility curve to European option prices.
"""

from .estimators import (
    GradientEstimate,
    estimate_variance,
    grad_est1,
    grad_est2,
    grad_est3,
    grad_est_batched,
    measure_correction_coefficients,
)
from .model import (
    MarketSpec,
    OptionQuote,
    VolCurve,
    black_scholes_call,
    build_model_tape,
    default_fixture,
    load_market_file,
    loss,
    payoffs,
    terminal_price,
    vol_at,
)
from .optimizer import CalibrationTrace, LbfgsConfig, calibrate, lbfgs_minimize
from .rng_paths import PathBatch, generate
from .tape import ReplayCounters, Tape, record

__version__ = "0.1.0"

__all__ = [
    "CalibrationTrace",
    "GradientEstimate",
    "LbfgsConfig",
    "MarketSpec",
    "OptionQuote",
    "PathBatch",
    "ReplayCounters",
    "Tape",
    "VolCurve",
    "black_scholes_call",
    "build_model_tape",
    "calibrate",
    "default_fixture",
    "estimate_variance",
    "generate",
    "grad_est1",
    "grad_est2",
    "grad_est3",
    "grad_est_batched",
    "lbfgs_minimize",
    "load_market_file",
    "loss",
    "measure_correction_coefficients",
    "payoffs",
    "record",
    "terminal_price",
    "vol_at",
]
