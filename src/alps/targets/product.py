"""Iid product targets pi_beta(x) proportional to prod f(x_i)^beta.

Used by the cold-temperature scaling experiment, and as the
`iid_product_skew` target, the 20-d product that the `pt-skew` benchmark
workload samples by parallel tempering.  The default shape is a
recentred skew-normal whose second and third log-derivatives at the
mode feed the scaling experiment's predicted-acceptance formula.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .. import numdiff
from ..density import TargetDensity
from .skewnormal import (skew_log_pdf, skew_log_pdf_d2, skew_log_pdf_d3,
                         skew_normal_mode_offset)


def check_shape(h: Callable) -> None:
    """Grid verification on [-8, 8] that h is a valid shape: finite,
    h(0) = 0, unique maximum at 0, strictly negative curvature there."""
    grid = np.linspace(-8.0, 8.0, 1601)
    vals = np.asarray(h(grid), dtype=float)
    if not np.all(np.isfinite(vals)):
        raise ValueError("h must be finite on the check grid")
    h0 = float(h(np.array([0.0]))[0])
    if abs(h0) > 1e-10:
        raise ValueError(f"h(0) must be 0, got {h0:.3e}")
    if np.max(vals) > h0 + 1e-12:
        k = int(np.argmax(vals))
        raise ValueError(f"h is not maximized at 0 (larger value at x = {grid[k]:.4f})")
    h2 = numdiff.richardson_second_derivative(lambda t: float(h(np.array([t]))[0]), 0.0)
    if h2 >= 0:
        raise ValueError(f"h''(0) must be negative, got {h2:.3e}")


class IidProductTarget(TargetDensity):
    """log pi(x) = beta * sum_i h(x_i) with h(0) = 0 and the max at 0."""

    def __init__(self, h: Callable, dim: int, beta: float = 1.0):
        if beta <= 0:
            raise ValueError("beta must be positive")
        check_shape(h)
        super().__init__(dim=dim, name="iid_product")
        self.h = h
        self.beta = float(beta)

    def _log_density_block(self, xs: np.ndarray) -> np.ndarray:
        # h is elementwise; each row is summed over its own axis
        return (self.beta * self.h(xs)).sum(axis=1)


class SkewShape:
    """Recentred skew-normal 1-d shape for the scaling experiment.

    h(x) = log f(x + m0) - log f(m0) where f is the skew-normal density
    with the given alpha and m0 its mode, so h(0) = 0 and h'(0) = 0.
    The derivatives entering the acceptance formula are the analytic
    ones of log f at m0.  A non-finite alpha is a ValueError, raised
    before the mode search could overflow on it.
    """

    def __init__(self, alpha: float = 2.0):
        self.alpha = float(alpha)
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be a finite number, got {alpha!r}")
        self.m0 = skew_normal_mode_offset(self.alpha)
        self._peak = float(skew_log_pdf(self.m0, alpha))

    def __call__(self, x):
        # x is a float or an array of floats; skew_log_pdf takes it as one
        h = skew_log_pdf(x + self.m0, self.alpha)
        h -= self._peak
        return h

    def h2(self) -> float:
        return float(skew_log_pdf_d2(self.m0, self.alpha))

    def h3(self) -> float:
        return float(skew_log_pdf_d3(self.m0, self.alpha))


class GaussianShape:
    """Symmetric control shape h(x) = -x^2 / 2 (zero third derivative)."""

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x * x

    def h2(self) -> float:
        return -1.0

    def h3(self) -> float:
        return 0.0
