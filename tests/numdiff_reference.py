"""Finite-difference reference derivatives that only tests read.

The Richardson-extrapolated third derivative is, with
`alps.numdiff.richardson_second_derivative`, the reference that tests
hold the shapes' analytic `h2`/`h3` to, which are what the
cold-temperature acceptance formula reads.

`pointwise_gradient` and `pointwise_hessian` are the central
differences of `alps.numdiff` scored one point at a time, by a function
of one point: the references that the one-block stencils equal bit for
bit.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from alps.numdiff import GRAD_STEP, HESS_STEP, _richardson, _steps


def richardson_third_derivative(f: Callable[[float], float], x: float,
                                h0: float = 0.1, levels: int = 5) -> float:
    ests = []
    for k in range(levels):
        h = h0 / 2.0 ** k
        ests.append((f(x + 2 * h) - 2.0 * f(x + h) + 2.0 * f(x - h) - f(x - 2 * h))
                    / (2.0 * h ** 3))
    return _richardson(ests)


def pointwise_gradient(f: Callable[[np.ndarray], float],
                       x: np.ndarray) -> np.ndarray:
    h = _steps(x, GRAD_STEP)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h[i]
        g[i] = (f(x + e) - f(x - e)) / (2.0 * h[i])
    return g


def pointwise_hessian(f: Callable[[np.ndarray], float],
                      x: np.ndarray) -> np.ndarray:
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
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej)
                + f(x - ei - ej)) / (4.0 * h[i] * h[j])
    return 0.5 * (hess + hess.T)
