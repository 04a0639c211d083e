"""Component-wise tempered rescaled mixture distributions (1-d reference).

These are not used by the sampler itself.  They exist to property-test
the mass-preservation claim behind the HAT construction: tempering each
component with a weight-preserving normalization keeps the component
masses at their beta = 1 values, while naive power tempering distorts
them by |Sigma_j|^{(1-beta)/2}.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import gammaln, logsumexp

from alps.linalg import LOG_2PI

POWER = "power"
WEIGHT_PRESERVING = "weight_preserving"


@dataclass(frozen=True)
class CtrmdSpec:
    """1-d mixture: components (w_j, mu_j, var_j) over a base shape g."""

    weights: tuple
    mus: tuple
    variances: tuple
    g: str = "gaussian"       # "gaussian" | "student_t"
    df: float = 4.0           # only for student_t

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        if np.any(np.asarray(self.variances, dtype=float) <= 0):
            raise ValueError("variances must be positive")
        if self.g not in ("gaussian", "student_t"):
            raise ValueError(f"unsupported base shape {self.g!r}")


def _log_g(spec: CtrmdSpec, z: np.ndarray) -> np.ndarray:
    if spec.g == "gaussian":
        return -0.5 * (z * z + LOG_2PI)
    nu = spec.df
    const = (gammaln(0.5 * (nu + 1.0)) - gammaln(0.5 * nu)
             - 0.5 * np.log(nu * np.pi))
    return const - 0.5 * (nu + 1.0) * np.log1p(z * z / nu)


def _log_normalizer(spec: CtrmdSpec, beta: float) -> float:
    """log integral of g(z)^beta dz."""
    if spec.g == "gaussian":
        return 0.5 * (1.0 - beta) * LOG_2PI - 0.5 * np.log(beta)
    val, err = quad(lambda z: np.exp(beta * _log_g(spec, np.asarray(z))),
                    -np.inf, np.inf, limit=200)
    if not np.isfinite(val) or val <= 0 or err > 1e-8 * val:
        raise ValueError("normalizer quadrature failed for base shape "
                         f"{spec.g!r} at beta {beta}")
    return float(np.log(val))


def tempered_component_log_weights(spec: CtrmdSpec, beta: float,
                                   mode: str) -> np.ndarray:
    """Normalized log W_(j,beta) for the requested tempering mode."""
    w = np.log(np.asarray(spec.weights, dtype=float))
    if mode == WEIGHT_PRESERVING:
        raw = w
    elif mode == POWER:
        var = np.asarray(spec.variances, dtype=float)
        raw = beta * w + 0.5 * (1.0 - beta) * np.log(var)
    else:
        raise ValueError(f"unknown tempering mode {mode!r}")
    return raw - logsumexp(raw)


def ctrmd_log_density(spec: CtrmdSpec, x: float, beta: float,
                      mode: str = WEIGHT_PRESERVING) -> float:
    """Normalized log density of the tempered mixture at x."""
    if beta <= 0:
        raise ValueError("beta must be positive")
    log_w = tempered_component_log_weights(spec, beta, mode)
    mus = np.asarray(spec.mus, dtype=float)
    sd = np.sqrt(np.asarray(spec.variances, dtype=float))
    z = (x - mus) / sd
    log_norm = _log_normalizer(spec, beta)
    comp = beta * _log_g(spec, z) - np.log(sd) - log_norm
    return float(logsumexp(log_w + comp))


def component_masses(spec: CtrmdSpec, beta: float, mode: str,
                     boundaries: list[float]) -> np.ndarray:
    """Quadrature masses of the tempered density between boundaries.

    `boundaries` are the interior cut points separating the component
    allocation regions (len = n_components - 1), assumed well separated.
    """
    cuts = [-np.inf] + list(boundaries) + [np.inf]
    masses = []
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        val, _ = quad(lambda t: np.exp(ctrmd_log_density(spec, t, beta, mode)),
                      lo, hi, limit=400)
        masses.append(val)
    return np.asarray(masses)
