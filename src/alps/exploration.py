"""Exploration component: mode search and registry updates.

The hot chain belongs to the runner (`runner._Run`): it moves on the
plain power-tempered density pi^beta_hot, a `hat.Level` without a
snapshot (mode information does not exist yet when exploration starts),
by `kernels.rwm_core`, and its record (`hat.ChainRecord`) is its only
state.  Every sweep until adaptation freezes it moves and searches:
`mfind` runs a quasi-Newton ascent from the point the chain reached and
offers the resulting (mode, Hessian) pair to the registry.  At the
freeze the chain stops.  The runner's `initial_modes` are registered by
the same search.

Per sweep the hot chain draws from the sweep's explore stream: first
the refresh coin (only while `refresh_from_modes` > 0 and a mode is
registered; on heads the mixture point follows), then z, then u, per
RWM step.  `mfind` itself draws nothing.
"""

from __future__ import annotations

import logging
from typing import Callable, Optional

import numpy as np

from .density import TargetDensity
from .hat import Level
from .kernels import rwm_core
from .optimize import local_optimize
from .registry import (IndefiniteHessianError, ModeRegistry,
                       covariance_from_hessian, make_mode_info, try_insert)

logger = logging.getLogger(__name__)

# `status` of an mfind discovery record
INSERTED = "inserted"
DUPLICATE = "duplicate"
NOT_CONVERGED = "not_converged"
REJECTED = "rejected"


def hot_step(x_hot: np.ndarray, beta_hot: float, base: TargetDensity,
             rng: np.random.Generator, step_scale: float = 1.0):
    """One RWM update of a hot chain; returns (x', accepted).

    It pays two density evaluations per step, where the runner's hot
    chains carry their log density and pay one.  Nothing in the package
    calls it; it is kept because perfbench/tracer.py still counts hot
    steps through this name.
    """
    if not 0.0 < beta_hot < 1.0:
        raise ValueError("beta_hot must lie in (0, 1)")
    target = Level(base, beta_hot)
    rec = target.record(x_hot)
    rec, _, accepted = rwm_core(rec, target.value(rec)[0], target, step_scale,
                                rng)
    return rec.x, accepted


def hessian_at(base: TargetDensity, mu: np.ndarray) -> np.ndarray:
    """Hessian of log pi at mu: the target's `hessian`, analytic or by
    central differences."""
    hess = base.hessian(np.asarray(mu, dtype=float))
    if not np.all(np.isfinite(hess)):
        bad = np.argwhere(~np.isfinite(hess))
        raise ValueError(f"non-finite Hessian entries at indices {bad.tolist()}")
    return hess


def mfind(x: np.ndarray, registry: ModeRegistry, base: TargetDensity,
          log_cb: Optional[Callable[[dict], None]] = None):
    """One mode search from x; returns (mu, registry', found_new), mu
    the ascent's endpoint.

    Non-converged ascents and indefinite Hessians are discarded with a
    log message.  The record passed to `log_cb` has a `status`:
    INSERTED, DUPLICATE, NOT_CONVERGED, or REJECTED with the rejection
    message in `reason`.
    """
    record = {"found_new": False, "log_pi_at_mode": np.nan,
              "min_pseudo_distance": np.nan, "status": NOT_CONVERGED}
    mu, converged = local_optimize(x, base)
    if not converged:
        logger.debug("mode search did not converge; candidate discarded")
        if log_cb:
            log_cb(record)
        return mu, registry, False
    try:
        sigma = covariance_from_hessian(hessian_at(base, mu))
        candidate = make_mode_info(mu, sigma, base.log_density(mu))
    except (IndefiniteHessianError, ValueError) as err:
        logger.warning("candidate mode rejected: %s", err)
        record.update(status=REJECTED, reason=str(err))
        if log_cb:
            log_cb(record)
        return mu, registry, False
    record["log_pi_at_mode"] = candidate.log_pi_at_mode
    record["min_pseudo_distance"] = registry.min_pseudo_distance(candidate)
    registry, inserted = try_insert(registry, candidate)
    record["found_new"] = inserted
    record["status"] = INSERTED if inserted else DUPLICATE
    if log_cb:
        log_cb(record)
    return mu, registry, inserted
