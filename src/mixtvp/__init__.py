"""Bayesian time-varying-parameter VARs with mixture laws of motion.

The package estimates regressions and triangularized VARs whose
coefficients follow regime-switching or mixture innovation processes,
simulates from their posteriors, and scores density forecasts against
constant-coefficient benchmarks.
"""

from .dgp import DgpConfig, generate, generate_var_break
from .evaluation import (
    ForecastRecord,
    crps,
    equal_accuracy_test,
    expanding_windows,
    log_predictive_score,
    run_forecast_harness,
    score_rows,
    tables_from_scores,
)
from .io import load_panel_csv, principal_components, run_config, standardize
from .sampler import ModelSpec, PosteriorDraws, run_chain
from .var import (
    ForecastDistribution,
    VarEstimate,
    estimate_var,
    simulate_predictive,
)

__all__ = [
    "DgpConfig",
    "ForecastDistribution",
    "ForecastRecord",
    "ModelSpec",
    "PosteriorDraws",
    "VarEstimate",
    "crps",
    "equal_accuracy_test",
    "estimate_var",
    "expanding_windows",
    "generate",
    "generate_var_break",
    "load_panel_csv",
    "log_predictive_score",
    "principal_components",
    "run_chain",
    "run_config",
    "run_forecast_harness",
    "score_rows",
    "simulate_predictive",
    "standardize",
    "tables_from_scores",
]
