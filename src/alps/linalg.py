"""Cholesky-based linear algebra helpers.

Quadratic forms and Gaussian log-densities go through a stored lower
Cholesky factor: either a triangular solve, or (on the density and
quad-form paths, which reuse the same small factors many times and
score blocks of points) a cached triangular inverse applied by one
broadcast `matmul` (`quad_forms`).

`scipy.linalg` and its LAPACK wrappers are imported when a function
here first factors or solves (`_scipy_linalg`), not with the package:
a run that never factors a matrix (parallel tempering on power levels,
the scaling experiment) does not load them.  Every other module
factors and solves through these functions.
"""

from __future__ import annotations

import functools

import numpy as np

LOG_2PI = float(np.log(2.0 * np.pi))


@functools.cache
def _scipy_linalg():
    """scipy.linalg with its LAPACK wrappers, imported on the first call;
    later calls return the cached module, far cheaper than an import
    statement in each solve."""
    import scipy.linalg.lapack
    return scipy.linalg


class IndefiniteMatrixError(ValueError):
    """Cholesky factorization failed; `pivot` is the 0-based failing index."""

    def __init__(self, message: str, pivot: int):
        super().__init__(f"{message} (failing pivot index {pivot})")
        self.pivot = pivot


def chol_lower(a: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a symmetric positive-definite matrix."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    c, info = _scipy_linalg().lapack.dpotrf(a, lower=1, clean=1, overwrite_a=0)
    if info > 0:
        raise IndefiniteMatrixError("matrix is not positive definite", pivot=info - 1)
    if info < 0:
        raise ValueError(f"illegal value in Cholesky argument {-info}")
    return c


def log_det_from_chol(chol: np.ndarray) -> float:
    return float(2.0 * np.sum(np.log(np.diag(chol))))


def logsumexp_rows(a: np.ndarray) -> np.ndarray:
    """logsumexp over the last axis of an (L, K) array, row by row: a
    row's max plus the log of its shifted exponentials' sum, or its max
    where that is not finite.  A caller scores a 1-d array a as the
    one-row block a[None].

    Written out rather than scipy's, whose general broadcasting costs
    more than the target density itself on the few-component arrays
    the kernels produce."""
    m = a.max(axis=-1)
    finite = np.isfinite(m)
    if finite.all():
        return m + np.log(np.exp(a - m[:, None]).sum(axis=-1))
    m[finite] = logsumexp_rows(a[finite])
    return m


def quad_forms(inv_chols: np.ndarray, mus: np.ndarray,
               x: np.ndarray) -> np.ndarray:
    """(x - mu_j)^T Sigma_j^{-1} (x - mu_j) for each of J Gaussians, from
    the inverses (J, d, d) of the lower Cholesky factors of Sigma_j and
    the means (J, d): (J,) for a point x, (L, J) for an (L, d) block.

    A block goes through one broadcast `matmul`, whose rows equal the
    point-by-point values bit for bit (`einsum` may sum in another
    order)."""
    z = np.matmul(inv_chols, (x[..., None, :] - mus)[..., None])
    return (z * z).sum(axis=(-2, -1))


def solve_lower(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve chol y = b for a lower-triangular chol."""
    return _scipy_linalg().solve_triangular(chol, b, lower=True,
                                            check_finite=False)


def spd_solve(chol: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve S x = b for S = chol chol^T."""
    return _scipy_linalg().solve_triangular(chol.T, solve_lower(chol, b),
                                            lower=False, check_finite=False)
