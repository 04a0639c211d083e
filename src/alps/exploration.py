"""Exploration component: hot chain, mode finding, registry updates.

The hot chain moves on the plain power-tempered density pi^beta_hot
(mode information does not exist yet when exploration starts).  Each
mfind call advances the hot chain, runs a quasi-Newton ascent from its
endpoint, and offers the resulting (mode, Hessian) pair to the registry.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .density import PowerTarget, TargetDensity
from .kernels import mixture_propose, rwm_core
from .optimize import OptimizerConfig, local_optimize
from .registry import (IndefiniteHessianError, ModeRegistry,
                       covariance_from_hessian, make_mode_info, try_insert)

logger = logging.getLogger(__name__)

# `status` of an mfind discovery record
INSERTED = "inserted"
DUPLICATE = "duplicate"
NOT_CONVERGED = "not_converged"
REJECTED = "rejected"


@dataclass
class ExplorationConfig:
    beta_hot: float
    v: int = 5
    step_scale: float = 1.0
    n_hot_chains: int = 1
    refresh_from_modes: float = 0.0
    optimizer: OptimizerConfig | None = None

    def __post_init__(self):
        if not 0.0 < self.beta_hot < 1.0:
            raise ValueError("beta_hot must lie in (0, 1)")
        if self.v < 0 or self.step_scale <= 0 or self.n_hot_chains < 1:
            raise ValueError("invalid exploration settings")
        if not 0.0 <= self.refresh_from_modes <= 1.0:
            raise ValueError("refresh_from_modes must be a probability")
        if self.optimizer is None:
            self.optimizer = OptimizerConfig()


def hot_step(x_hot: np.ndarray, beta_hot: float, base: TargetDensity,
             rng: np.random.Generator, step_scale: float = 1.0):
    """One RWM update of the hot chain; returns (x', accepted).  It pays
    two density evaluations per step; long chains should call rwm_core."""
    if not 0.0 < beta_hot < 1.0:
        raise ValueError("beta_hot must lie in (0, 1)")
    target = PowerTarget(base, beta_hot)
    x_hot = np.asarray(x_hot, dtype=float)
    x_new, _, accepted = rwm_core(x_hot, target.log_density(x_hot), target,
                                  step_scale, rng)
    return x_new, accepted


def hessian_at(base: TargetDensity, mu: np.ndarray) -> np.ndarray:
    """Hessian of log pi at mu (analytic callback or central differences)."""
    hess = base.hessian(np.asarray(mu, dtype=float))
    if not np.all(np.isfinite(hess)):
        bad = np.argwhere(~np.isfinite(hess))
        raise ValueError(f"non-finite Hessian entries at indices {bad.tolist()}")
    return hess


def mfind(x_hot: np.ndarray, registry: ModeRegistry, base: TargetDensity,
          cfg: ExplorationConfig, rng: np.random.Generator,
          log_cb: Optional[Callable[[dict], None]] = None):
    """One exploration step; returns (x_hot', registry', found_new).

    Runs v + 1 hot-chain updates, then an ascent from the endpoint.
    Non-converged ascents and indefinite Hessians are discarded with a
    warning; the hot state still advances.  The record passed to
    `log_cb` has a `status`: INSERTED, DUPLICATE, NOT_CONVERGED, or
    REJECTED with the rejection message in `reason`.
    """
    x_hot = np.asarray(x_hot, dtype=float)
    if cfg.refresh_from_modes > 0.0 and registry.n_modes > 0:
        if rng.random() < cfg.refresh_from_modes:
            x_hot = mixture_propose(registry.snapshot(), 1.0, rng)
    for _ in range(cfg.v + 1):
        x_hot, _ = hot_step(x_hot, cfg.beta_hot, base, rng, cfg.step_scale)

    record = {"found_new": False, "log_pi_at_mode": np.nan,
              "min_pseudo_distance": np.nan, "status": NOT_CONVERGED}
    mu, converged = local_optimize(x_hot, base, cfg.optimizer)
    if not converged:
        logger.debug("mode search did not converge; candidate discarded")
        if log_cb:
            log_cb(record)
        return x_hot, registry, False
    try:
        sigma, _, _ = covariance_from_hessian(hessian_at(base, mu))
        candidate = make_mode_info(mu, sigma, base.log_density(mu))
    except (IndefiniteHessianError, ValueError) as err:
        logger.warning("candidate mode rejected: %s", err)
        record.update(status=REJECTED, reason=str(err))
        if log_cb:
            log_cb(record)
        return x_hot, registry, False
    record["log_pi_at_mode"] = candidate.log_pi_at_mode
    record["min_pseudo_distance"] = registry.min_pseudo_distance(candidate)
    registry, inserted = try_insert(registry, candidate)
    record["found_new"] = inserted
    record["status"] = INSERTED if inserted else DUPLICATE
    if log_cb:
        log_cb(record)
    return x_hot, registry, inserted
