"""Quasi-Newton (BFGS) maximization of a log-density.

Backtracking Armijo line search; inverse-Hessian update skipped when the
curvature condition fails.  Kept deliberately small: candidates that do
not meet the gradient tolerance are discarded by the caller, so the
optimizer only has to be trustworthy, not clever.
"""

from __future__ import annotations

import logging

import numpy as np

from .density import TargetDensity

logger = logging.getLogger(__name__)


MAX_ITERATIONS = 500
GRADIENT_TOLERANCE = 1e-6
# sufficient decrease: f(x + t p) <= f(x) + ARMIJO_CONSTANT * t * slope
ARMIJO_CONSTANT = 1e-4
BACKTRACK_FACTOR = 0.5


def local_optimize(x0: np.ndarray, base: TargetDensity):
    """Maximize base.log_density from x0; returns (mu, converged).

    converged means the infinity norm of the gradient fell below
    GRADIENT_TOLERANCE within MAX_ITERATIONS; on line-search failure the
    best point seen so far is returned with converged = False.
    """
    x = np.asarray(x0, dtype=float).copy()
    d = x.size

    def f(p: np.ndarray) -> float:
        return -base.log_density(p)

    def grad(p: np.ndarray) -> np.ndarray:
        return -base.gradient(p)

    fx = f(x)
    if not np.isfinite(fx):
        raise ValueError("log density not finite at the starting point")
    g = grad(x)
    if not np.all(np.isfinite(g)):
        return x, False
    h_inv = np.eye(d)
    scaled = False
    best_x, best_f = x.copy(), fx

    for _ in range(MAX_ITERATIONS):
        if np.max(np.abs(g)) <= GRADIENT_TOLERANCE:
            return x, True
        p = -h_inv @ g
        slope = float(g @ p)
        if slope >= 0.0:
            h_inv = np.eye(d)
            p = -g
            slope = float(g @ p)
        t = 1.0
        fx_new = f(x + t * p)
        while not (np.isfinite(fx_new)
                   and fx_new <= fx + ARMIJO_CONSTANT * t * slope):
            t *= BACKTRACK_FACTOR
            if t < 1e-16:
                logger.debug("line search failed at |g|=%.3e", np.max(np.abs(g)))
                return best_x, False
            fx_new = f(x + t * p)
        x_new = x + t * p
        g_new = grad(x_new)
        if not np.all(np.isfinite(g_new)):
            return best_x, False
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-10 * np.linalg.norm(s) * np.linalg.norm(y):
            if not scaled:
                # size the initial inverse Hessian to the observed
                # curvature before the first update; with badly scaled
                # problems this cuts the iteration count dramatically
                h_inv = (sy / float(y @ y)) * np.eye(d)
                scaled = True
            rho = 1.0 / sy
            hy = h_inv @ y
            # inverse BFGS update (I - rho s y^T) H (I - rho y s^T) + rho s s^T
            h_inv = (h_inv - rho * (np.outer(s, hy) + np.outer(hy, s))
                     + rho * rho * float(y @ hy) * np.outer(s, s)
                     + rho * np.outer(s, s))
        x, fx, g = x_new, fx_new, g_new
        if fx < best_f:
            best_x, best_f = x.copy(), fx

    converged = bool(np.max(np.abs(g)) <= GRADIENT_TOLERANCE)
    return (x, True) if converged else (best_x, False)
