"""Exact Gaussian and Gaussian-mixture targets (mainly for calibration tests).

Each component's quad form applies the cached inverse of its Cholesky
factor to a block by one broadcast `matmul` (`linalg.quad_forms`).
"""

from __future__ import annotations

import numpy as np

from ..density import TargetDensity
from ..linalg import (LOG_2PI, chol_lower, log_det_from_chol, logsumexp_1d,
                      logsumexp_rows, quad_forms, solve_lower, spd_solve)


class GaussianMixtureTarget(TargetDensity):
    """Weighted mixture of K normals with an analytic gradient: weights
    (K,) positive and summing to 1, mus (K, d), sigmas (K, d, d)."""

    def __init__(self, weights, mus, sigmas):
        w = np.asarray(weights, dtype=float)
        self.mus = np.asarray(mus, dtype=float)
        sigmas = np.asarray(sigmas, dtype=float)
        if (w.ndim != 1 or self.mus.shape[:1] != w.shape
                or self.mus.ndim != 2
                or sigmas.shape != self.mus.shape + self.mus.shape[1:]):
            raise ValueError(f"expected weights (K,), mus (K, d) and sigmas "
                             f"(K, d, d), got shapes {w.shape}, "
                             f"{self.mus.shape} and {sigmas.shape}")
        if np.any(w <= 0) or abs(w.sum() - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        super().__init__(dim=self.mus.shape[1], name="gaussian_mixture")
        self.log_w = np.log(w)
        self.chols = np.stack([chol_lower(s) for s in sigmas])
        self.log_dets = np.array([log_det_from_chol(c) for c in self.chols])
        eye = np.eye(self.dim)
        self._inv_chols = np.stack([solve_lower(c, eye) for c in self.chols])

    def _components(self, xs: np.ndarray) -> np.ndarray:
        """(L, K) weighted component log densities of the rows of xs."""
        # a row with an infinite entry meets inf * 0 in the matmul; its
        # quad form is nan or inf either way, so say nothing about it
        with np.errstate(invalid="ignore"):
            qf = quad_forms(self._inv_chols, self.mus, xs)
        return self.log_w - 0.5 * (self.dim * LOG_2PI + self.log_dets + qf)

    def _log_density_block(self, xs: np.ndarray) -> np.ndarray:
        return logsumexp_rows(self._components(xs))

    def gradient(self, x: np.ndarray) -> np.ndarray:
        lp = self._components(np.asarray(x, dtype=float)[None])[0]
        r = np.exp(lp - logsumexp_1d(lp))
        g = np.zeros(self.dim)
        for k in range(self.mus.shape[0]):
            g += r[k] * spd_solve(self.chols[k], self.mus[k] - x)
        return g


class GaussianTarget(GaussianMixtureTarget):
    """Multivariate normal N(mu, sigma), the mixture of one component,
    with an analytic Hessian."""

    def __init__(self, mu: np.ndarray, sigma: np.ndarray):
        super().__init__([1.0], [mu], [sigma])
        self.name = "gaussian"
        neg_prec = -spd_solve(self.chols[0], np.eye(self.dim))
        self._neg_prec = 0.5 * (neg_prec + neg_prec.T)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        return self._neg_prec
