"""Exact Gaussian and Gaussian-mixture targets (mainly for calibration tests)."""

from __future__ import annotations

import numpy as np
from scipy.special import logsumexp

from ..density import TargetDensity
from ..linalg import (LOG_2PI, chol_lower, log_det_from_chol, logsumexp_1d,
                      spd_solve)
from scipy.linalg import solve_triangular


class GaussianTarget(TargetDensity):
    """Multivariate normal N(mu, sigma) with analytic derivatives."""

    def __init__(self, mu: np.ndarray, sigma: np.ndarray):
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        self.mu = mu
        self.sigma = sigma
        self.chol = chol_lower(sigma)
        self.log_det = log_det_from_chol(self.chol)
        self._neg_prec = -spd_solve(self.chol, np.eye(mu.size))
        super().__init__(dim=mu.size, log_density=self._logpdf,
                         gradient=self._grad, hessian=self._hess,
                         name="gaussian")

    def _logpdf(self, x: np.ndarray) -> float:
        z = solve_triangular(self.chol, x - self.mu, lower=True,
                             check_finite=False)
        return -0.5 * (self.dim * LOG_2PI + self.log_det + float(z @ z))

    def _grad(self, x: np.ndarray) -> np.ndarray:
        return spd_solve(self.chol, self.mu - x)

    def _hess(self, x: np.ndarray) -> np.ndarray:
        return self._neg_prec


class GaussianMixtureTarget(TargetDensity):
    """Weighted mixture of normals with an analytic gradient."""

    def __init__(self, weights, mus, sigmas):
        w = np.asarray(weights, dtype=float)
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        self.log_w = np.log(w)
        self.mus = np.asarray(mus, dtype=float)
        self.chols = np.stack([chol_lower(np.asarray(s, dtype=float))
                               for s in sigmas])
        self.log_dets = np.array([log_det_from_chol(c) for c in self.chols])
        d = self.mus.shape[1]
        super().__init__(dim=d, log_density=self._logpdf, gradient=self._grad,
                         name="gaussian_mixture")

    def _component_logpdfs(self, x: np.ndarray) -> np.ndarray:
        out = np.empty(self.mus.shape[0])
        for k in range(self.mus.shape[0]):
            z = solve_triangular(self.chols[k], x - self.mus[k], lower=True,
                                 check_finite=False)
            out[k] = -0.5 * (self.dim * LOG_2PI + self.log_dets[k]
                             + float(z @ z))
        return out

    def _logpdf(self, x: np.ndarray) -> float:
        return logsumexp_1d(self.log_w + self._component_logpdfs(x))

    def _grad(self, x: np.ndarray) -> np.ndarray:
        lp = self.log_w + self._component_logpdfs(x)
        r = np.exp(lp - logsumexp(lp))
        g = np.zeros(self.dim)
        for k in range(self.mus.shape[0]):
            g += r[k] * spd_solve(self.chols[k], self.mus[k] - x)
        return g
