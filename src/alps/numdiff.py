"""Finite-difference derivatives.

Central differences are the fallback when a target does not provide an
analytic gradient or Hessian.  They take a block function, one that
maps the rows of an (m, d) array to their m values (a target's
`log_density_batch`), and score all points of their stencil in one
call.  Each point is built by the arithmetic of its one-point formula
(x + e_i + e_j adds e_i, then e_j), so a block function whose rows do
not depend on each other gives the one-point derivatives bit for bit.

The Richardson-extrapolated second derivative checks the curvature of
a product-target shape at its mode (`targets.product.check_shape`) and
sizes the scaling experiment's rejection envelope from it at the mode
and at +-8 (`scaling._envelope_curvature`).
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


def central_gradient(f: Callable[[np.ndarray], np.ndarray],
                     x: np.ndarray) -> np.ndarray:
    """Central first differences of the block function f at x, its 2d
    points x + e_i and x - e_i scored in one call."""
    x = np.asarray(x, dtype=float)
    h = _steps(x, GRAD_STEP)
    fp, fm = np.split(f(np.vstack((x + np.diag(h), x - np.diag(h)))), 2)
    # a difference of infinite values is NaN, silently, as on floats
    with np.errstate(invalid="ignore", over="ignore"):
        return (fp - fm) / (2.0 * h)


def central_hessian(f: Callable[[np.ndarray], np.ndarray],
                    x: np.ndarray) -> np.ndarray:
    """Symmetric central second differences of the block function f at
    x, symmetrized as (H + H^T)/2: its 2 d^2 + 1 points, x, x +- e_i
    and x +- e_i +- e_j for i < j, scored in one call."""
    x = np.asarray(x, dtype=float)
    d = x.size
    h = _steps(x, HESS_STEP)
    steps = np.diag(h)
    plus, minus = x + steps, x - steps
    i, j = np.triu_indices(d, 1)
    f0, fp, fm, fpp, fpm, fmp, fmm = np.split(
        f(np.vstack((x[None], plus, minus, plus[i] + steps[j],
                     plus[i] - steps[j], minus[i] + steps[j],
                     minus[i] - steps[j]))),
        np.cumsum([1, d, d] + [i.size] * 3))
    with np.errstate(invalid="ignore", over="ignore"):  # checked below
        hess = np.diag((fp - 2.0 * f0 + fm) / (h * h))
        hess[i, j] = hess[j, i] = ((fpp - fpm - fmp + fmm)
                                   / (4.0 * h[i] * h[j]))
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
