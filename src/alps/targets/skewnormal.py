"""Skew-normal building blocks and the 20-d four-mode benchmark target.

The benchmark density is a logsumexp over four coordinate-wise
skew-normal components sharing one skew parameter, with component
locations in plus/minus pairs and per-component scales (1, 1, 2, 2).
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr

from ..density import TargetDensity
from ..linalg import LOG_2PI, logsumexp_rows

LOG_2 = float(np.log(2.0))


def _norm_log_pdf(t):
    return -0.5 * (t * t + LOG_2PI)


def mills_ratio(t):
    """phi(t) / Phi(t), stable for large negative t."""
    return np.exp(_norm_log_pdf(t) - log_ndtr(t))


def skew_log_pdf(z, alpha: float):
    """log of the normalized 1-d skew-normal 2 phi(z) Phi(alpha z).

    Computed in place with the floating-point operations of
    LOG_2 + _norm_log_pdf(z) + log_ndtr(alpha z), summed in that order, so
    the bits match that expression while a bulk array holds at most two
    temporaries at a time.
    """
    z = np.asarray(z, dtype=float)
    tail = log_ndtr(alpha * z)
    out = z * z
    out += LOG_2PI
    out *= -0.5
    out += LOG_2
    out += tail
    return out


def skew_log_pdf_d1(z, alpha: float):
    return -z + alpha * mills_ratio(alpha * z)


def skew_log_pdf_d2(z, alpha: float):
    u = alpha * np.asarray(z, dtype=float)
    r = mills_ratio(u)
    return -1.0 - alpha * alpha * r * (u + r)


def skew_log_pdf_d3(z, alpha: float):
    u = alpha * np.asarray(z, dtype=float)
    r = mills_ratio(u)
    return alpha ** 3 * r * (u * u - 1.0 + 3.0 * u * r + 2.0 * r * r)


def skew_normal_mode_offset(alpha: float) -> float:
    """Location of the max of 2 phi(z) Phi(alpha z), by bisection on d1."""
    if alpha == 0.0:
        return 0.0
    sign = 1.0 if alpha > 0 else -1.0
    lo, hi = 0.0, sign
    while skew_log_pdf_d1(hi, alpha) * sign > 0:
        hi *= 2.0
        if abs(hi) > 1e6:
            raise RuntimeError("mode bracket expansion failed")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if skew_log_pdf_d1(mid, alpha) * sign > 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class SkewNormalMixtureTarget(TargetDensity):
    """Evenly-weighted mixture of coordinate-wise skew-normal components."""

    def __init__(self, alpha: float, mus, omegas):
        mus = np.asarray(mus, dtype=float)
        omegas = np.asarray(omegas, dtype=float)
        if mus.ndim != 2 or omegas.shape != (mus.shape[0],):
            raise ValueError("mus must be (K, d) with one scale per component")
        if np.any(omegas <= 0):
            raise ValueError("omegas must be positive")
        super().__init__(dim=mus.shape[1], name="skew_normal_mixture")
        self.alpha = float(alpha)
        self.mus = mus
        self.omegas = omegas
        self._inv_omegas = 1.0 / omegas[:, None]
        self._comp_const = mus.shape[1] * (LOG_2 - 0.5 * LOG_2PI
                                           - np.log(omegas))

    @property
    def component_locations(self) -> np.ndarray:
        return self.mus

    def component_modes(self) -> np.ndarray:
        """True mode points (location plus per-scale skew offset)."""
        off = skew_normal_mode_offset(self.alpha)
        return self.mus + off * self.omegas[:, None]

    def _components(self, xs: np.ndarray) -> np.ndarray:
        """(L, K) component log densities of the rows of xs: one (L, K, d)
        broadcast, summed over its last axis."""
        z = (xs[:, None, :] - self.mus) * self._inv_omegas
        terms = log_ndtr(self.alpha * z) - 0.5 * (z * z)
        return terms.sum(axis=-1) + self._comp_const

    def _log_density_block(self, xs: np.ndarray) -> np.ndarray:
        return logsumexp_rows(self._components(xs))

    def _responsibilities(self, x: np.ndarray):
        """(r, z) at the point x: the components' posterior weights (K,)
        and standardized offsets (K, d)."""
        comp = self._components(x[None])[0]
        w = np.exp(comp - np.max(comp))
        return w / np.sum(w), (x - self.mus) * self._inv_omegas

    def gradient(self, x: np.ndarray) -> np.ndarray:
        r, z = self._responsibilities(np.asarray(x, dtype=float))
        return r @ (skew_log_pdf_d1(z, self.alpha) * self._inv_omegas)

    def hessian(self, x: np.ndarray) -> np.ndarray:
        r, z = self._responsibilities(np.asarray(x, dtype=float))
        dcomp = skew_log_pdf_d1(z, self.alpha) * self._inv_omegas
        d2comp = skew_log_pdf_d2(z, self.alpha) * self._inv_omegas ** 2
        g = r @ dcomp
        hess = np.diag(r @ d2comp) - np.outer(g, g)
        for k in range(self.mus.shape[0]):
            hess += r[k] * np.outer(dcomp[k], dcomp[k])
        return 0.5 * (hess + hess.T)


def benchmark_target(dim: int = 20, alpha: float = 10.0) -> SkewNormalMixtureTarget:
    """The four-mode benchmark: locations +-(20,...) and +-(-10 x d/2, 10 x d/2)."""
    if dim % 2:
        raise ValueError("benchmark dimension must be even")
    mu1 = np.full(dim, 20.0)
    mu3 = np.concatenate([np.full(dim // 2, -10.0), np.full(dim // 2, 10.0)])
    mus = np.stack([mu1, -mu1, mu3, -mu3])
    omegas = np.array([1.0, 1.0, 2.0, 2.0])
    return SkewNormalMixtureTarget(alpha=alpha, mus=mus, omegas=omegas)
