"""Registry of discovered modes: locations, Laplace covariances, weights.

The registry is append-only; chain targets reference modes by index and
those indices never change.  Samplers never read the registry directly:
they hold an immutable `RegistrySnapshot` (stacked arrays, versioned)
that is republished after every successful insertion.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .linalg import (IndefiniteMatrixError, chol_lower, log_det_from_chol,
                     logsumexp_rows, quad_forms, solve_lower)

logger = logging.getLogger(__name__)


class IndefiniteHessianError(ValueError):
    """-hessian is not positive definite at a claimed local maximum."""

    def __init__(self, pivot: int):
        super().__init__(
            f"not a local maximum / indefinite Hessian (failing pivot index {pivot})")
        self.pivot = pivot


def default_tol(dim: int) -> float:
    """Dedup tolerance 1 + (2/d)^(1/2)."""
    return 1.0 + np.sqrt(2.0 / dim)


@dataclass(frozen=True)
class ModeInfo:
    """One discovered mode: location, Laplace covariance, height."""

    mu: np.ndarray
    sigma: np.ndarray
    sigma_chol: np.ndarray
    log_pi_at_mode: float
    log_det_sigma: float

    @property
    def dim(self) -> int:
        return self.mu.shape[0]


def make_mode_info(mu: np.ndarray, sigma: np.ndarray,
                   log_pi_at_mode: float) -> ModeInfo:
    mu = np.asarray(mu, dtype=float).copy()
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (mu.size, mu.size):
        raise ValueError(f"sigma shape {sigma.shape} does not match dim {mu.size}")
    if not np.allclose(sigma, sigma.T, rtol=1e-8, atol=1e-12):
        raise ValueError("sigma is not symmetric within tolerance")
    sigma = 0.5 * (sigma + sigma.T)
    chol = chol_lower(sigma)
    return ModeInfo(mu=mu, sigma=sigma, sigma_chol=chol,
                    log_pi_at_mode=float(log_pi_at_mode),
                    log_det_sigma=log_det_from_chol(chol))


def covariance_from_hessian(hess: np.ndarray) -> np.ndarray:
    """sigma = -hess^{-1}, which `make_mode_info` factors.

    Inversion goes through the Cholesky factor of -hess.  A single
    jitter retry (1e-10 * max |diag|) absorbs near-semidefinite cases;
    a second failure raises with the failing pivot index.
    """
    hess = np.asarray(hess, dtype=float)
    neg = -0.5 * (hess + hess.T)
    try:
        chol_neg = chol_lower(neg)
    except IndefiniteMatrixError as first:
        eps = 1e-10 * max(float(np.max(np.abs(np.diag(neg)))), 1.0)
        try:
            chol_neg = chol_lower(neg + eps * np.eye(neg.shape[0]))
            logger.warning("Hessian required jitter %.3e to factor", eps)
        except IndefiniteMatrixError:
            raise IndefiniteHessianError(pivot=first.pivot) from first
    # sigma = L^{-T} L^{-1} for -hess = L L^T
    inv_chol = solve_lower(chol_neg, np.eye(neg.shape[0]))
    sigma = inv_chol.T @ inv_chol
    return 0.5 * (sigma + sigma.T)


def approximate_log_weights(modes: list[ModeInfo]) -> np.ndarray:
    """Normalized log weights with w_j proportional to pi(mu_j)|Sigma_j|^{1/2}."""
    if not modes:
        raise ValueError("no modes")
    raw = np.array([m.log_pi_at_mode + 0.5 * m.log_det_sigma for m in modes])
    return raw - logsumexp_rows(raw[None])[0]


def pseudo_distance(a: ModeInfo, b: ModeInfo) -> float:
    """d^{-1} max of the two Mahalanobis quadratic forms between mode points."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    diff = a.mu - b.mu
    za = solve_lower(a.sigma_chol, diff)
    zb = solve_lower(b.sigma_chol, diff)
    return max(float(za @ za), float(zb @ zb)) / a.dim


@dataclass(frozen=True)
class RegistrySnapshot:
    """Immutable stacked view of the registry used by chain kernels."""

    version: int
    dim: int
    mus: np.ndarray          # (J, d)
    chols: np.ndarray        # (J, d, d) lower factors of Sigma_j
    log_dets: np.ndarray     # (J,)
    log_weights: np.ndarray  # (J,), logsumexp = 0
    log_pi_at_modes: np.ndarray  # (J,)
    inv_chols: np.ndarray | None = None  # (J, d, d), filled on construction
    score_base: np.ndarray | None = None  # log w_j - 0.5 log|Sigma_j|

    def __post_init__(self):
        # chain kernels evaluate quadratic forms against every mode at
        # every density call, so the triangular inverses and the
        # temperature-free part of the allocation score are cached once
        if self.inv_chols is None:
            if self.n_modes:
                eye = np.eye(self.dim)
                inv = np.stack([solve_lower(c, eye) for c in self.chols])
            else:
                inv = np.empty((0, self.dim, self.dim))
            object.__setattr__(self, "inv_chols", inv)
        if self.score_base is None:
            object.__setattr__(self, "score_base",
                               self.log_weights - 0.5 * self.log_dets)

    @property
    def n_modes(self) -> int:
        return self.mus.shape[0]

    def quad_forms(self, x: np.ndarray) -> np.ndarray:
        """`linalg.quad_forms` of a point (J,) or an (L, dim) block (L, J)
        against every mode."""
        return quad_forms(self.inv_chols, self.mus, x)


@dataclass
class ModeRegistry:
    """Mutable, append-only collection of modes plus their weights."""

    dim: int
    tol: float | None = None
    modes: list[ModeInfo] = field(default_factory=list)
    log_weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    version: int = 0
    _snapshot: RegistrySnapshot | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.tol is None:
            self.tol = default_tol(self.dim)

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def min_pseudo_distance(self, candidate: ModeInfo) -> float:
        if not self.modes:
            return np.inf
        return min(pseudo_distance(m, candidate) for m in self.modes)

    def snapshot(self) -> RegistrySnapshot:
        if self._snapshot is None or self._snapshot.version != self.version:
            if not self.modes:
                raise ValueError("no modes discovered")
            self._snapshot = RegistrySnapshot(
                version=self.version,
                dim=self.dim,
                mus=np.stack([m.mu for m in self.modes]),
                chols=np.stack([m.sigma_chol for m in self.modes]),
                log_dets=np.array([m.log_det_sigma for m in self.modes]),
                log_weights=self.log_weights.copy(),
                log_pi_at_modes=np.array([m.log_pi_at_mode for m in self.modes]),
            )
        return self._snapshot

    def to_json(self) -> str:
        return json.dumps({
            "version": self.version,
            "dim": self.dim,
            "tol": self.tol,
            "modes": [{
                "mu": m.mu.tolist(),
                "sigma": m.sigma.tolist(),
                "log_pi_at_mode": m.log_pi_at_mode,
            } for m in self.modes],
        })

    @classmethod
    def from_json(cls, text: str) -> "ModeRegistry":
        obj = json.loads(text)
        reg = cls(dim=int(obj["dim"]), tol=float(obj["tol"]))
        reg.version = int(obj["version"])
        for entry in obj["modes"]:
            reg.modes.append(make_mode_info(
                np.array(entry["mu"]), np.array(entry["sigma"]),
                entry["log_pi_at_mode"]))
        if reg.modes:
            reg.log_weights = approximate_log_weights(reg.modes)
        return reg


def try_insert(registry: ModeRegistry, candidate: ModeInfo):
    """Insert candidate if it clears the pseudo-distance threshold.

    Returns (registry, inserted).  On insertion all weights are
    recomputed and the registry version is bumped, invalidating cached
    snapshots.
    """
    if candidate.dim != registry.dim:
        raise ValueError(f"dimension mismatch: {candidate.dim} vs {registry.dim}")
    if registry.modes and registry.min_pseudo_distance(candidate) <= registry.tol:
        return registry, False
    registry.modes.append(candidate)
    registry.log_weights = approximate_log_weights(registry.modes)
    registry.version += 1
    logger.info("registered mode %d at log pi = %.4f (version %d)",
                registry.n_modes - 1, candidate.log_pi_at_mode, registry.version)
    return registry, True
