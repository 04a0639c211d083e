"""Known-answer gates for the benchmark workloads.

Each gate takes plain arrays and returns (passed, checks), where checks
maps a check name to {"value", "expected", "tol", "passed"}.  Nothing
here imports alps, so the gates can be exercised on synthetic inputs.
"""

from __future__ import annotations

import math

import numpy as np


def _check(value: float, expected: float, tol: float) -> dict:
    value = float(value)
    return {"value": value, "expected": float(expected), "tol": float(tol),
            "passed": bool(abs(value - expected) <= tol)}


def _verdict(checks: dict) -> tuple:
    return all(c["passed"] for c in checks.values()), checks


def skew_normal_moments(alpha: float) -> tuple:
    """Mean and variance of the standard skew-normal SN(alpha)."""
    delta = alpha / math.sqrt(1.0 + alpha * alpha)
    return delta * math.sqrt(2.0 / math.pi), 1.0 - 2.0 * delta * delta / math.pi


def within_mode_moments(samples: np.ndarray, locations: np.ndarray,
                        scales: np.ndarray) -> tuple:
    """Pooled mean and variance of samples standardized against their
    nearest component: z = (x - location_k) / scale_k."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    locations = np.atleast_2d(np.asarray(locations, dtype=float))
    dist = ((samples[:, None, :] - locations[None, :, :]) ** 2).sum(axis=2)
    nearest = np.argmin(dist, axis=1)
    z = (samples - locations[nearest]) / np.asarray(scales, dtype=float)[nearest, None]
    return float(z.mean()), float(z.var())


def moment_checks(samples, locations, scales, alpha: float,
                  mean_tol: float, var_tol: float) -> dict:
    mean_true, var_true = skew_normal_moments(alpha)
    mean, var = within_mode_moments(samples, locations, scales)
    return {"within_mode_mean": _check(mean, mean_true, mean_tol),
            "within_mode_var": _check(var, var_true, var_tol)}


def skew_moment_gate(samples, locations, scales, alpha: float,
                     mean_tol: float, var_tol: float) -> tuple:
    """Level-0 samples follow SN(alpha) around their nearest component."""
    return _verdict(moment_checks(samples, locations, scales, alpha,
                                  mean_tol, var_tol))


def registry_checks(mode_points, true_modes, weights, dist_tol: float,
                    weight_tol: float) -> dict:
    """One registered mode near each true mode, with equal weights."""
    mode_points = np.atleast_2d(np.asarray(mode_points, dtype=float))
    true_modes = np.atleast_2d(np.asarray(true_modes, dtype=float))
    n_true = true_modes.shape[0]
    checks = {"n_modes": _check(mode_points.shape[0], n_true, 0)}
    if mode_points.shape[0] == 0:
        return checks
    dist = np.sqrt(((mode_points[:, None, :] - true_modes[None, :, :]) ** 2)
                   .sum(axis=2))
    nearest = np.argmin(dist, axis=1)
    checks["distinct_modes"] = _check(len(set(nearest.tolist())), n_true, 0)
    checks["max_mode_distance"] = _check(
        float(dist[np.arange(nearest.size), nearest].max()), 0.0, dist_tol)
    weights = np.asarray(weights, dtype=float)
    worst = float(weights[np.argmax(np.abs(weights - 1.0 / n_true))])
    checks["worst_weight"] = _check(worst, 1.0 / n_true, weight_tol)
    return checks


def alps_20d_gate(samples, true_locations, scales, true_modes, mode_points,
                  weights, alpha: float, threshold: float, p_true: float,
                  p_tol: float, mean_tol: float, var_tol: float,
                  dist_tol: float, weight_tol: float) -> tuple:
    """Registry, weights, within-mode moments and P(x_1 < threshold)."""
    checks = registry_checks(mode_points, true_modes, weights, dist_tol,
                             weight_tol)
    checks.update(moment_checks(samples, true_locations, scales, alpha,
                                mean_tol, var_tol))
    p_hat = float(np.mean(np.asarray(samples)[:, 0] < threshold))
    checks["p_x1_below_threshold"] = _check(p_hat, p_true, p_tol)
    return _verdict(checks)


def sur_gate(mode_points, log_pi_at_modes, theta_ref, loglik_ref: float,
             loglik_tol: float, theta_rtol: float) -> tuple:
    """The best registered mode is the iterated-GLS optimum."""
    log_pi = np.asarray(log_pi_at_modes, dtype=float)
    checks = {"n_modes_at_least_1": {
        "value": float(log_pi.size), "expected": 1.0, "tol": 0.0,
        "passed": bool(log_pi.size >= 1)}}
    if log_pi.size == 0:
        return _verdict(checks)
    best = int(np.argmax(log_pi))
    mu = np.asarray(mode_points, dtype=float)[best]
    theta = np.asarray(theta_ref, dtype=float)
    checks["log_pi_at_mode"] = _check(log_pi[best], loglik_ref, loglik_tol)
    rel = float(np.max(np.abs(mu - theta) / np.maximum(1.0, np.abs(theta))))
    checks["mode_vs_theta_rel"] = _check(rel, 0.0, theta_rtol)
    return _verdict(checks)


def scaling_gate(dims, observed, stderr, predicted, final_gap_tol: float,
                 noise_sds: float = 3.0) -> tuple:
    """Observed leap acceptance approaches the closed-form limit in d.

    The gap |observed - predicted| may not grow by more than noise_sds
    standard errors from one dimension to the next, must shrink overall,
    and at the largest dimension must be below final_gap_tol.
    """
    order = np.argsort(np.asarray(dims))
    gap = np.abs(np.asarray(observed, dtype=float)
                 - np.asarray(predicted, dtype=float))[order]
    se = np.asarray(stderr, dtype=float)[order]
    growth = float(np.max(np.diff(gap) - noise_sds * se[1:])) if gap.size > 1 else -1.0
    checks = {
        "final_gap": _check(gap[-1], 0.0, final_gap_tol),
        "gap_growth_beyond_noise": {"value": growth, "expected": 0.0,
                                    "tol": 0.0, "passed": bool(growth <= 0.0)},
        "gap_shrinks": {"value": float(gap[-1] - gap[0]), "expected": 0.0,
                        "tol": 0.0,
                        "passed": bool(gap.size < 2 or gap[-1] < gap[0])},
    }
    return _verdict(checks)
