"""Finite-difference derivatives.

Central differences are the fallback when a target does not provide an
analytic gradient or Hessian.  The Richardson-extrapolated second
derivative checks the curvature of a product-target shape at its mode
(`targets.product.check_shape`) and sizes the scaling experiment's
rejection envelope from it at the mode and at +-8
(`scaling._envelope_curvature`).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_EPS = float(np.finfo(float).eps)
GRAD_STEP = _EPS ** (1.0 / 3.0)
HESS_STEP = _EPS ** 0.25


def _steps(x: np.ndarray, base: float) -> np.ndarray:
    # per-coordinate step scaled by max(1, |x_i|)
    return base * np.maximum(1.0, np.abs(x))


def central_gradient(f: Callable[[np.ndarray], float],
                     x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    h = _steps(x, GRAD_STEP)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h[i])
    return g


def central_hessian(f: Callable[[np.ndarray], float],
                    x: np.ndarray) -> np.ndarray:
    """Symmetric central second differences, symmetrized as (H + H^T)/2."""
    x = np.asarray(x, dtype=float)
    d = x.size
    h = _steps(x, HESS_STEP)
    hess = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / (h[i] * h[i])
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            fpp = f(x + ei + ej)
            fpm = f(x + ei - ej)
            fmp = f(x - ei + ej)
            fmm = f(x - ei - ej)
            hess[i, j] = (fpp - fpm - fmp + fmm) / (4.0 * h[i] * h[j])
            hess[j, i] = hess[i, j]
    if not np.all(np.isfinite(hess)):
        bad = np.argwhere(~np.isfinite(hess))
        raise ValueError(f"non-finite Hessian entries at indices {bad.tolist()}")
    return 0.5 * (hess + hess.T)


def _richardson(estimates: list[float]) -> float:
    # estimates[k] computed with step h/2^k; the error expands in even
    # powers of h, so level lvl eliminates the h^(2 lvl) term
    table = [list(estimates)]
    n = len(estimates)
    for lvl in range(1, n):
        fac = 4.0 ** lvl
        prev = table[-1]
        table.append([(fac * prev[k + 1] - prev[k]) / (fac - 1.0)
                      for k in range(n - lvl)])
    return table[-1][0]


def richardson_second_derivative(f: Callable[[float], float], x: float,
                                 h0: float = 0.1, levels: int = 5) -> float:
    ests = []
    for k in range(levels):
        h = h0 / 2.0 ** k
        ests.append((f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h))
    return _richardson(ests)
