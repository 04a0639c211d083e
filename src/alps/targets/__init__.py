"""Target-distribution library and name-based construction for run configs."""

from __future__ import annotations

import numpy as np

from ..config import _require_int, _require_number
from ..density import TargetDensity
from .gaussian import GaussianMixtureTarget, GaussianTarget
from .product import GaussianShape, IidProductTarget, SkewShape
from .skewnormal import SkewNormalMixtureTarget, benchmark_target
from .sur import (SurData, SurProfileTarget, load_grunfeld, load_sur_csv,
                  sur_gls_theta, sur_profile_loglik, sur_sigma_hat,
                  zellner_iterate)

__all__ = [
    "GaussianTarget", "GaussianMixtureTarget", "SkewNormalMixtureTarget",
    "benchmark_target", "IidProductTarget", "SkewShape", "GaussianShape",
    "SurData", "SurProfileTarget", "load_grunfeld", "load_sur_csv",
    "sur_sigma_hat", "sur_gls_theta", "sur_profile_loglik", "zellner_iterate",
    "build_target", "TARGET_PARAMS",
]


# Parameter keys each named target accepts.
TARGET_PARAMS = {
    "gaussian": {"mu", "sigma"},
    "gaussian_mixture": {"weights", "mus", "sigmas"},
    "skew_normal_mixture_20d": {"dim", "alpha"},
    "sur_grunfeld": {"first_years"},
    "sur_csv": {"path", "first_years"},
    "iid_product_skew": {"dim", "alpha"},
}


def build_target(name: str, params: dict | None = None) -> TargetDensity:
    """Construct a named target from a config parameter block.

    Unknown target names and parameter keys are errors, and so are a
    `dim` that is not an integer, an `alpha` that is not a finite
    number, and a `first_years` that is not a positive integer or
    null (all years).
    """
    params = dict(params or {})
    if name not in TARGET_PARAMS:
        raise ValueError(f"unknown target {name!r}")
    extra = set(params) - TARGET_PARAMS[name]
    if extra:
        raise ValueError(f"unknown parameter(s) {sorted(extra)} for target "
                         f"{name!r}; accepted: {sorted(TARGET_PARAMS[name])}")
    if name == "gaussian":
        return GaussianTarget(np.asarray(params["mu"], dtype=float),
                              np.asarray(params["sigma"], dtype=float))
    if name == "gaussian_mixture":
        return GaussianMixtureTarget(params["weights"], params["mus"],
                                     params["sigmas"])
    if "dim" in params:
        _require_int(params["dim"], "target.params.dim")
    if "alpha" in params:
        _require_number(params["alpha"], "target.params.alpha")
    if params.get("first_years") is not None:
        _require_int(params["first_years"], "target.params.first_years")
        if params["first_years"] < 1:
            raise ValueError("target.params.first_years must be at least 1, "
                             "or null for all years")
    if name == "skew_normal_mixture_20d":
        return benchmark_target(dim=params.get("dim", 20),
                                alpha=float(params.get("alpha", 10.0)))
    if name == "sur_grunfeld":
        data = load_grunfeld(first_years=params.get("first_years", 15))
        return SurProfileTarget(data)
    if name == "sur_csv":
        data = load_sur_csv(params["path"],
                            first_years=params.get("first_years"))
        return SurProfileTarget(data)
    # iid_product_skew
    shape = SkewShape(alpha=float(params.get("alpha", 2.0)))
    return IidProductTarget(shape, dim=params["dim"])
