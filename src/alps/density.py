"""Target-density abstraction consumed by every sampler in the package."""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from . import numdiff

Vector = np.ndarray


class TargetDensity:
    """Unnormalized log-density with optional analytic derivatives.

    `log_density` may return -inf where the density vanishes.  Evaluation
    must be pure: targets are shared across levels and, potentially,
    worker threads.

    `log_density_batch(X)` evaluates the rows of an (L, dim) array and
    returns an (L,) array whose entry i is bit for bit
    `log_density(X[i])`, so a caller may batch the points of many chains
    without changing any decision.  By default the rows are evaluated one
    at a time through `log_density`; a subclass may vectorize
    `_log_density_rows` if it keeps this equality.
    """

    def __init__(self, dim: int,
                 log_density: Callable[[Vector], float],
                 gradient: Optional[Callable[[Vector], Vector]] = None,
                 hessian: Optional[Callable[[Vector], np.ndarray]] = None,
                 name: str = "target"):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self._log_density = log_density
        self._gradient = gradient
        self._hessian = hessian
        self.name = name

    def log_density(self, x: Vector) -> float:
        return float(self._log_density(np.asarray(x, dtype=float)))

    def log_density_batch(self, xs: np.ndarray) -> np.ndarray:
        """log_density of each row of the (L, dim) array `xs`, as (L,)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected an (L, {self.dim}) batch, got shape "
                             f"{xs.shape}")
        out = np.asarray(self._log_density_rows(xs), dtype=float)
        if out.shape != (xs.shape[0],):
            raise ValueError(f"{self.name}: batch log density has shape "
                             f"{out.shape}, expected ({xs.shape[0]},)")
        return out

    def _log_density_rows(self, xs: np.ndarray):
        return [self.log_density(x) for x in xs]

    def gradient(self, x: Vector) -> Vector:
        x = np.asarray(x, dtype=float)
        if self._gradient is not None:
            return np.asarray(self._gradient(x), dtype=float)
        return numdiff.central_gradient(self.log_density, x)

    def hessian(self, x: Vector) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self._hessian is not None:
            h = np.asarray(self._hessian(x), dtype=float)
            return 0.5 * (h + h.T)
        return numdiff.central_hessian(self.log_density, x)

