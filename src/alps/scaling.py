"""Cold-temperature scaling of the mode-leap acceptance rate.

For an iid product target with per-coordinate shape h (mode at 0,
h(0) = 0, H = h''(0) < 0), tempered to beta = ell * d, the
independence-sampler acceptance rate E[min(1, e^B)] approaches

    2 Phi(-(1/sqrt 2) sqrt(15 h'''(0)^2 / (36 ell |h''(0)|^3)))

as d grows.  This module estimates the left side by Monte Carlo and
evaluates the right side in closed form.

The current state x is drawn coordinate-wise by rejection from exp(beta*h),
and the rejection sampler hands back h(x) with each draw.  The leap ratio
carries those values, so the shape is evaluated once per proposal of the
rejection sampler and once per leap proposal y, never again at x.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr

from . import numdiff
from .rng import SCALING_STREAM, StreamFactory
from .targets.product import check_shape

logger = logging.getLogger(__name__)

_GRID_HALF_WIDTH = 12.0
_GRID_POINTS = 24001
_BATCH = 1 << 18


class EnvelopeViolationError(RuntimeError):
    """Rejection-sampler envelope fell below the density at `abscissa`."""

    def __init__(self, abscissa: float, message: str):
        super().__init__(message)
        self.abscissa = float(abscissa)


@dataclass(frozen=True)
class ScalingExperimentConfig:
    """Shape, temperature slope (beta = ell * d), dimension grid, MC size."""

    shape: Callable
    ell: float
    dims: tuple = (10, 20, 40, 80)
    samples: int = 100_000
    seed: int = 0

    def __post_init__(self):
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ValueError(f"ell must be finite and positive, got {self.ell!r}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError("dims must all be at least 2")
        if self.samples <= 1:
            raise ValueError("samples must exceed 1")
        object.__setattr__(self, "dims", dims)
        check_shape(self.shape)


@dataclass(frozen=True)
class ScalingRow:
    d: int
    beta: float
    observed_rate: float
    mc_stderr: float
    predicted_rate: float


def predicted_acceptance(h3: float, h2: float, ell: float) -> float:
    """Limiting leap acceptance 2 Phi(-(1/sqrt 2) sqrt(15 h3^2 / (36 ell |h2|^3)))."""
    if h2 >= 0:
        raise ValueError(f"h''(0) must be negative, got {h2:.6g}")
    if ell <= 0:
        raise ValueError(f"ell must be positive, got {ell:.6g}")
    arg = -math.sqrt(0.5) * math.sqrt(15.0 * h3 * h3 / (36.0 * ell * (-h2) ** 3))
    return 2.0 * float(ndtr(arg))


def _shape_derivatives(shape: Callable) -> tuple:
    if hasattr(shape, "h2") and hasattr(shape, "h3"):
        return float(shape.h2()), float(shape.h3())
    scalar = lambda t: float(np.asarray(shape(np.array([t])), dtype=float)[0])
    return (numdiff.richardson_second_derivative(scalar, 0.0, h0=0.05),
            numdiff.richardson_third_derivative(scalar, 0.0, h0=0.05))


def _envelope_log_constant(shape: Callable, beta: float, env_sd: float) -> float:
    """Grid supremum of beta*h(t) - log phi(t; 0, env_sd^2) plus margin."""
    grid = env_sd * np.linspace(-_GRID_HALF_WIDTH, _GRID_HALF_WIDTH, _GRID_POINTS)
    log_ratio = (beta * np.asarray(shape(grid), dtype=float)
                 + 0.5 * (grid / env_sd) ** 2
                 + math.log(env_sd * math.sqrt(2.0 * math.pi)))
    if not np.all(np.isfinite(log_ratio)):
        k = int(np.flatnonzero(~np.isfinite(log_ratio))[0])
        raise EnvelopeViolationError(
            grid[k], f"envelope validation failed: non-finite density ratio "
                     f"at x = {grid[k]:.6g}")
    return float(np.max(log_ratio)) + 1e-6 * (1.0 + beta)


def _log_acceptance(t: np.ndarray, h: np.ndarray, beta: float, env_sd: float,
                    log_env_norm: float, log_m: float) -> tuple:
    """Rejection log acceptance ratio of the envelope proposals t with
    shape values h: beta*h + 0.5*(t/env_sd)**2 + log_env_norm - log_m,
    summed left to right, computed in place with one temporary.

    Returns (log_acc, spent temporary); the caller may reuse the latter.
    """
    log_acc = beta * h
    sq = t / env_sd
    sq **= 2
    sq *= 0.5
    log_acc += sq
    log_acc += log_env_norm
    log_acc -= log_m
    return log_acc, sq


def _rejection_batch(shape: Callable, beta: float, env_sd: float,
                     log_env_norm: float, log_m: float, m: int, rng) -> tuple:
    """m envelope proposals; returns the accepted ones and h at each.

    Raises EnvelopeViolationError, naming the abscissa, where a log
    acceptance ratio is positive or NaN (a NaN shape value).

    A function of its own so that its temporaries are freed before the
    next batch allocates.
    """
    t = env_sd * rng.standard_normal(m)
    h = np.asarray(shape(t), dtype=float)
    log_acc, sq = _log_acceptance(t, h, beta, env_sd, log_env_norm, log_m)
    worst = float(log_acc.max())  # NaN if any entry is NaN
    if not worst <= 0.0:
        # argmax finds the first NaN too
        bad = float(t[np.argmax(log_acc)])
        raise EnvelopeViolationError(
            bad, f"rejection envelope violated at x = {bad:.6g} "
                 f"(log acceptance ratio {worst:.3e}, must be <= 0)")
    u = rng.random(m, out=sq)  # sq is spent; its buffer takes the uniforms
    np.negative(u, out=u)
    keep = np.flatnonzero(np.log1p(u, out=u) < log_acc)
    return t[keep], h[keep]


def _sample_tempered_coords(shape: Callable, beta: float, env_sd: float,
                            log_m: float, n_coords: int, rng) -> tuple:
    """Draw n_coords iid values with density proportional to exp(beta*h).

    Returns (draws, h(draws)).  Each h value is copied from the shape
    evaluation the draw's acceptance test already made, so callers never
    evaluate the shape at the draws again.
    """
    out = np.empty(n_coords)
    h_out = np.empty(n_coords)
    filled = 0
    log_env_norm = math.log(env_sd * math.sqrt(2.0 * math.pi))
    while filled < n_coords:
        m = min(max(2 * (n_coords - filled), 64), _BATCH)
        kept, h_kept = _rejection_batch(shape, beta, env_sd, log_env_norm,
                                        log_m, m, rng)
        take = min(kept.size, n_coords - filled)
        out[filled:filled + take] = kept[:take]
        h_out[filled:filled + take] = h_kept[:take]
        filled += take
    return out, h_out


def _g_row_sums(t: np.ndarray, h: np.ndarray, abs_h2: float) -> np.ndarray:
    """Row sums of g(t) = h(t) + |H| t^2 / 2, given h already evaluated at t."""
    g = 0.5 * abs_h2 * t
    g *= t
    g += h
    return g.sum(axis=1)


def _leap_log_ratios(shape: Callable, beta: float, abs_h2: float,
                     gx_sums: np.ndarray, y: np.ndarray) -> np.ndarray:
    """B = beta * (sum_i g(y_i) - sum_i g(x_i)), g(t) = h(t) + |H| t^2 / 2.

    The row sums of g(x) come in carried (`_g_row_sums` of the sampler's
    draws and their h values); the shape is evaluated at y only.  The
    per-coordinate form makes a symmetric Gaussian shape cancel exactly
    (g identically zero), so its observed rate is 1 bitwise.
    """
    gy_sums = _g_row_sums(y, np.asarray(shape(y), dtype=float), abs_h2)
    return beta * (gy_sums - gx_sums)


def scaling_experiment(cfg: ScalingExperimentConfig) -> list:
    """Observed vs predicted leap acceptance along the dimension grid."""
    h2, h3 = _shape_derivatives(cfg.shape)
    if h2 >= 0:
        raise ValueError(f"h''(0) must be negative, got {h2:.6g}")
    abs_h2 = -h2
    predicted = predicted_acceptance(h3, h2, cfg.ell)
    factory = StreamFactory(cfg.seed)
    rows = []
    for d in cfg.dims:
        beta = cfg.ell * d
        env_sd = math.sqrt(2.0 * max(1.0, abs_h2) / (beta * abs_h2))
        log_m = _envelope_log_constant(cfg.shape, beta, env_sd)
        rng = factory.stream(SCALING_STREAM, counter=d)
        prop_sd = 1.0 / math.sqrt(beta * abs_h2)
        vals = np.empty(cfg.samples)
        done = 0
        while done < cfg.samples:
            rows_here = min(cfg.samples - done, max(_BATCH // d, 1))
            x, hx = _sample_tempered_coords(cfg.shape, beta, env_sd, log_m,
                                            rows_here * d, rng)
            gx_sums = _g_row_sums(x.reshape(rows_here, d),
                                  hx.reshape(rows_here, d), abs_h2)
            del x, hx  # freed before y is drawn, so peak memory stays flat
            y = prop_sd * rng.standard_normal((rows_here, d))
            b = _leap_log_ratios(cfg.shape, beta, abs_h2, gx_sums, y)
            vals[done:done + rows_here] = np.where(b >= 0.0, 1.0, np.exp(b))
            done += rows_here
        observed = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(cfg.samples))
        logger.info("scaling d=%d beta=%.3g observed=%.4f (se %.4f) "
                    "predicted=%.4f", d, beta, observed, stderr, predicted)
        rows.append(ScalingRow(d=d, beta=float(beta), observed_rate=observed,
                               mc_stderr=stderr, predicted_rate=predicted))
    return rows
