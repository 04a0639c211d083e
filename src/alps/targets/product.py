"""Iid product targets pi_beta(x) proportional to prod f(x_i)^beta.

Used by the cold-temperature scaling experiment.  The default shape is a
recentred skew-normal whose second and third log-derivatives at the
mode feed the predicted-acceptance formula.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .. import numdiff
from ..density import TargetDensity
from .skewnormal import (skew_log_pdf, skew_log_pdf_d2, skew_log_pdf_d3,
                         skew_normal_mode_offset)


def check_shape(h: Callable, grid_half: float = 8.0) -> None:
    """Grid verification that h is a valid shape: finite, h(0) = 0,
    unique maximum at 0, strictly negative curvature there."""
    grid = np.linspace(-grid_half, grid_half, 1601)
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

    def __init__(self, h: Callable, dim: int, beta: float = 1.0,
                 validate: bool = True):
        if beta <= 0:
            raise ValueError("beta must be positive")
        if validate:
            check_shape(h)
        self.h = h
        self.beta = float(beta)
        super().__init__(dim=dim, log_density=self._logpdf, name="iid_product")

    def _logpdf(self, x: np.ndarray) -> float:
        return float((self.beta * np.asarray(self.h(x), dtype=float)).sum())

    def _log_density_rows(self, xs: np.ndarray) -> np.ndarray:
        # h is elementwise and each row is reduced like `_logpdf` reduces x
        return (self.beta * np.asarray(self.h(xs), dtype=float)).sum(axis=1)


class SkewShape:
    """Recentred skew-normal 1-d shape for the scaling experiment.

    h(x) = log f(x + m0) - log f(m0) where f is the skew-normal density
    with the given alpha and m0 its mode, so h(0) = 0 and h'(0) = 0.
    The derivatives entering the acceptance formula are the analytic
    ones of log f at m0.
    """

    def __init__(self, alpha: float = 2.0):
        self.alpha = float(alpha)
        self.m0 = skew_normal_mode_offset(alpha)
        self._peak = float(skew_log_pdf(self.m0, alpha))

    def __call__(self, x):
        h = skew_log_pdf(np.asarray(x, dtype=float) + self.m0, self.alpha)
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
