"""Target-density abstraction consumed by every sampler in the package.

A target defines its density once, over a block of points:
`_log_density_block(xs)` maps the rows of an (L, dim) array to their
(L,) log densities.  `log_density_batch` checks the shapes around it,
and `log_density(x)` is the one row of the block [x], so the value of a
point and its value inside any block cannot drift apart.

Row i of a block must come from arithmetic on row i alone: elementwise
operations, broadcast `matmul` and reductions over the row's own axes.
Its bits then do not depend on the other rows or on their number, so a
caller may batch the points of many chains without changing any
decision, and a block phase equals its one-point reference bit for bit.
A triangular solve with many right-hand sides breaks this: solving the
rows of a Gaussian block at once differed in the last bit from solving
each row alone on 969 of 5800 random rows at d = 1 and on 1502 of 5800
at d = 20.  The Gaussian targets therefore apply cached triangular
inverses by broadcast `matmul` (`linalg.quad_forms`).
"""

from __future__ import annotations

import numpy as np

from . import numdiff

Vector = np.ndarray


class TargetDensity:
    """Unnormalized log-density over the rows of a block (see the module
    docstring), with derivatives by central differences.

    A subclass implements `_log_density_block`; it may return -inf where
    the density vanishes.  Evaluation must be pure: targets are shared
    across levels and, potentially, worker threads.  A target with an
    analytic gradient or Hessian overrides `gradient` or `hessian`, and
    returns a symmetric Hessian.
    """

    def __init__(self, dim: int, name: str = "target"):
        if dim < 1:
            raise ValueError("dim must be positive")
        self.dim = int(dim)
        self.name = name

    def _log_density_block(self, xs: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def log_density_batch(self, xs: np.ndarray) -> np.ndarray:
        """log density of each row of the (L, dim) array `xs`, as (L,)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim != 2 or xs.shape[1] != self.dim:
            raise ValueError(f"expected an (L, {self.dim}) batch, got shape "
                             f"{xs.shape}")
        out = np.asarray(self._log_density_block(xs), dtype=float)
        if out.shape != (xs.shape[0],):
            raise ValueError(f"{self.name}: batch log density has shape "
                             f"{out.shape}, expected ({xs.shape[0]},)")
        return out

    def log_density(self, x: Vector) -> float:
        """log density of the point x (dim,): the row of the block [x]."""
        xs = np.asarray(x, dtype=float)[None]
        return float(self.log_density_batch(xs)[0])

    def gradient(self, x: Vector) -> Vector:
        return numdiff.central_gradient(self.log_density,
                                        np.asarray(x, dtype=float))

    def hessian(self, x: Vector) -> np.ndarray:
        """Central second differences, symmetrized as (H + H^T)/2."""
        return numdiff.central_hessian(self.log_density,
                                       np.asarray(x, dtype=float))
