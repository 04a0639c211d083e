"""Hessian-adjusted tempered (HAT) targets and their truncated variant.

A HAT target at inverse temperature beta rescales the base density per
mode so that every registered mode keeps its height log pi(mu_j) at all
temperatures, which makes the annealed levels locally Gaussian without
starving low modes of mass.
"""

from __future__ import annotations

import numpy as np
from scipy.special import gammainc, ndtri

from .density import TargetDensity
from .linalg import LOG_2PI
from .registry import RegistrySnapshot


def allocation_scores(snapshot: RegistrySnapshot, quad_forms: np.ndarray,
                      beta: float) -> np.ndarray:
    """Per-mode scores whose argmax is A_(x,beta).

    Score_j = log w_j + log phi(x | mu_j, Sigma_j / beta) with the terms
    shared across j dropped.
    """
    return snapshot.score_base - 0.5 * beta * quad_forms


def allocate_mode(x: np.ndarray, beta: float,
                  snapshot: RegistrySnapshot) -> int:
    """Index of the mode whose tempered Laplace component best explains x.

    Ties resolve to the lowest index (argmax returns the first maximum).
    """
    if snapshot.n_modes == 0:
        raise ValueError("no modes discovered")
    qf = snapshot.quad_forms(np.asarray(x, dtype=float))
    return int(np.argmax(allocation_scores(snapshot, qf, beta)))


def _hat_value(base: TargetDensity, snapshot: RegistrySnapshot, beta: float,
               x: np.ndarray, qf: np.ndarray) -> tuple[float, int]:
    """(log hat density, allocation at beta) given precomputed quad forms."""
    a_beta = int(np.argmax(snapshot.score_base - 0.5 * beta * qf))
    if beta == 1.0:
        return base.log_density(x), a_beta
    a_one = int(np.argmax(snapshot.score_base - 0.5 * qf))
    log_pi_mode = float(snapshot.log_pi_at_modes[a_beta])
    if a_beta == a_one:
        # beta log pi(x) + (1 - beta) log pi(mu), arranged so x = mu_j
        # returns log pi(mu_j) exactly
        return log_pi_mode + beta * (base.log_density(x) - log_pi_mode), a_beta
    # log G(x, beta): the (2 pi)^{d/2} |Sigma|^{1/2} beta^{-d/2} factors
    # cancel against the Gaussian normalizer, leaving the quadratic form
    return log_pi_mode - 0.5 * beta * float(qf[a_beta]), a_beta


class HatTarget:
    """Tempered target pi_beta built on a registry snapshot."""

    def __init__(self, base: TargetDensity, snapshot: RegistrySnapshot,
                 beta: float):
        if beta <= 0:
            raise ValueError("beta must be positive")
        if snapshot.n_modes == 0:
            raise ValueError("no modes discovered")
        if snapshot.dim != base.dim:
            raise ValueError("snapshot dimension does not match target")
        self.base = base
        self.snapshot = snapshot
        self.beta = float(beta)
        self.dim = base.dim

    @property
    def version(self) -> int:
        return self.snapshot.version

    def log_density(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        if self.beta == 1.0:
            return self.base.log_density(x)
        qf = self.snapshot.quad_forms(x)
        value, _ = _hat_value(self.base, self.snapshot, self.beta, x, qf)
        return value

    def value_and_alloc(self, x: np.ndarray) -> tuple[float, int]:
        """(log density, allocation index) from one quad-form evaluation."""
        x = np.asarray(x, dtype=float)
        qf = self.snapshot.quad_forms(x)
        return _hat_value(self.base, self.snapshot, self.beta, x, qf)

    def allocate_index(self, x: np.ndarray) -> int:
        return allocate_mode(x, self.beta, self.snapshot)


class TruncatedHatTarget:
    """HAT target restricted to the allocation mode's Mahalanobis ball.

    The indicator uses the untempered Sigma of the allocated mode; q is
    in squared-Mahalanobis units.
    """

    def __init__(self, inner: HatTarget, q: float):
        if q <= 0:
            raise ValueError("truncation radius q must be positive")
        self.inner = inner
        self.q = float(q)
        self.base = inner.base
        self.snapshot = inner.snapshot
        self.beta = inner.beta
        self.dim = inner.dim

    @property
    def version(self) -> int:
        return self.snapshot.version

    def log_density(self, x: np.ndarray) -> float:
        return self.value_and_alloc(x)[0]

    def value_and_alloc(self, x: np.ndarray) -> tuple[float, int]:
        """(log density, allocation index) from one quad-form evaluation."""
        x = np.asarray(x, dtype=float)
        qf = self.snapshot.quad_forms(x)
        value, a_beta = _hat_value(self.base, self.snapshot, self.beta, x, qf)
        if qf[a_beta] >= self.q:
            return -np.inf, a_beta
        return value, a_beta

    def allocate_index(self, x: np.ndarray) -> int:
        return self.inner.allocate_index(x)


def chi2_quantile(level: float, dim: int) -> float:
    """Chi-squared quantile via Wilson-Hilferty refined by bisection.

    Bisection runs on the regularized lower incomplete gamma, so the
    result is exact to the bracket width (1e-12 relative).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if dim < 1:
        raise ValueError("dim must be positive")
    z = ndtri(level)
    c = 2.0 / (9.0 * dim)
    guess = dim * (1.0 - c + z * np.sqrt(c)) ** 3
    guess = max(guess, 1e-8)

    def cdf(x: float) -> float:
        return float(gammainc(0.5 * dim, 0.5 * x))

    lo, hi = guess, guess
    while cdf(lo) > level:
        lo *= 0.5
    while cdf(hi) < level:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < level:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def gaussian_log_pdf_terms(snapshot: RegistrySnapshot, qf: np.ndarray,
                           beta: float) -> np.ndarray:
    """log phi(x | mu_j, Sigma_j / beta) for all j, from shared quad forms."""
    d = snapshot.dim
    return (-0.5 * d * LOG_2PI - 0.5 * snapshot.log_dets
            + 0.5 * d * np.log(beta) - 0.5 * beta * qf)
