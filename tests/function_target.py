"""A target built from plain callables, for tests.

`FunctionTarget(dim, log_density, gradient=None, hessian=None)` takes
the log density of one point (dim,) and evaluates a block row by row
through it, so a test can write a small density as a lambda.  Without a
gradient or a Hessian callable the package's central differences apply;
a Hessian callable's result is symmetrized as (H + H^T)/2.
"""

import numpy as np

from alps.density import TargetDensity


class FunctionTarget(TargetDensity):
    def __init__(self, dim, log_density, gradient=None, hessian=None,
                 name="target"):
        super().__init__(dim, name)
        self._fn, self._grad, self._hess = log_density, gradient, hessian

    def _log_density_block(self, xs):
        return np.array([float(self._fn(x)) for x in xs])

    def gradient(self, x):
        if self._grad is None:
            return super().gradient(x)
        return np.asarray(self._grad(np.asarray(x, dtype=float)), dtype=float)

    def hessian(self, x):
        if self._hess is None:
            return super().hessian(x)
        h = np.asarray(self._hess(np.asarray(x, dtype=float)), dtype=float)
        return 0.5 * (h + h.T)
