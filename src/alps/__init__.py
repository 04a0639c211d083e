"""Annealed leap-point sampling: mode-registry-driven tempering with
Hessian-adjusted targets, QuanTA swaps, and mode-leap moves."""

from .config import ConfigError, RunConfig, load_config, preset_dict
from .density import TargetDensity
from .diagnostics import RunDiagnostics, running_prob_estimate
from .hat import Level, chi2_quantile
from .registry import (IndefiniteHessianError, ModeInfo, ModeRegistry,
                       RegistrySnapshot, covariance_from_hessian,
                       make_mode_info, pseudo_distance, try_insert)
from .runner import NumericalAbort, alps_run, lais_run, pt_run
from .scaling import (EnvelopeViolationError, ScalingExperimentConfig,
                      predicted_acceptance, scaling_experiment)

__version__ = "0.1.0"

__all__ = [
    "ConfigError", "RunConfig", "load_config", "preset_dict",
    "TargetDensity",
    "RunDiagnostics", "running_prob_estimate",
    "Level", "chi2_quantile",
    "IndefiniteHessianError", "ModeInfo", "ModeRegistry", "RegistrySnapshot",
    "covariance_from_hessian", "make_mode_info", "pseudo_distance",
    "try_insert",
    "NumericalAbort", "alps_run", "lais_run", "pt_run",
    "EnvelopeViolationError", "ScalingExperimentConfig",
    "predicted_acceptance", "scaling_experiment",
    "__version__",
]
