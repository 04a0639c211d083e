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

The envelope is N(0, env_sd^2) with env_sd = 1.02 / sqrt(beta c), where
c = min(-h''(t)) over t = 0, -8 and 8 (Richardson second differences,
once per experiment): the shape's flattest curvature among its mode and
its two tails, so the envelope is 2% wider than exp(beta*h) where that is
widest.  Its constant M is the grid supremum of exp(beta*h) / phi plus a
margin, and the trapezoid rule on the same grid gives the acceptance
probability p = Z / M, Z the integral of exp(beta*h) (0.98 for the
Gaussian shape, about 0.64 for the skew one).  Each rejection round draws
min(ceil(need / p * 1.01 + 3 sqrt(need)) + 64, 2^15) proposals for the
`need` draws still missing, so a round that 2^15 does not cap almost
always fills them, and every proposal drawn is evaluated and checked
against M.

Each dimension d draws from its own stream (SCALING_STREAM, counter d),
so the dimensions are independent: they run on up to min(#dims, usable
CPUs) threads, largest first, since numpy's generator fills and scipy's
log_ndtr release the interpreter lock; the shape must therefore be safe
to call from several threads at once.  The thread count does not change
a draw: `scaling.csv` is the same bytes on any number of threads.

One block size, 2^15 (`_BLOCK`), bounds everything a dimension
allocates besides its per-sample results, so a thread's arrays stay in
cache: a dimension works through its samples in chunks of
max(2^15 // d, 1) rows, drawing the chunk's x round by round (each round
at most 2^15 proposals), then its leap proposals y in one draw.
"""

from __future__ import annotations

import logging
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import ndtr

from . import numdiff
from .config import _require_seed
from .rng import SCALING_STREAM, StreamFactory
from .targets.product import check_shape

logger = logging.getLogger(__name__)

_GRID_HALF_WIDTH = 12.0
_GRID_POINTS = 24001
_BLOCK = 1 << 15
_ENV_WIDEN = 1.02                 # envelope sd over the shape's widest scale
_CURVATURE_POINTS = (0.0, -8.0, 8.0)


class EnvelopeViolationError(RuntimeError):
    """Rejection-sampler envelope fell below the density at `abscissa`."""

    def __init__(self, abscissa: float, message: str):
        super().__init__(message)
        self.abscissa = float(abscissa)


@dataclass(frozen=True)
class ScalingExperimentConfig:
    """Shape, temperature slope (beta = ell * d), dimension grid, MC size.

    `env_curvature` is derived: the shape's `_envelope_curvature`, which
    must be positive.
    """

    shape: Callable
    ell: float
    dims: tuple = (10, 20, 40, 80)
    samples: int = 100_000
    seed: int = 0
    env_curvature: float = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not (math.isfinite(self.ell) and self.ell > 0):
            raise ValueError(f"ell must be finite and positive, got {self.ell!r}")
        dims = tuple(int(d) for d in self.dims)
        if not dims or any(d < 2 for d in dims):
            raise ValueError("dims must all be at least 2")
        if len(set(dims)) < len(dims):
            # each dimension reads stream counter d: a repeat is a copy
            raise ValueError(f"dims must not repeat, got {dims}")
        if self.samples <= 1:
            raise ValueError("samples must exceed 1")
        _require_seed(self.seed)
        if not (callable(getattr(self.shape, "h2", None))
                and callable(getattr(self.shape, "h3", None))):
            raise ValueError("shape must define h2() and h3(), its second "
                             "and third derivatives at 0")
        object.__setattr__(self, "dims", dims)
        check_shape(self.shape)
        c = _envelope_curvature(self.shape)
        if not (math.isfinite(c) and c > 0):
            raise ValueError(f"shape must be strictly concave at 0 and +-8 "
                             f"for the rejection envelope, min -h'' = {c:.3g}")
        object.__setattr__(self, "env_curvature", c)


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


def _envelope_curvature(shape: Callable) -> float:
    """c = min(-h''(t)) over t = 0, -8 and 8, by Richardson second
    differences: the shape's flattest curvature at its mode and in its
    tails, from which the envelope's scale 1.02 / sqrt(beta c) follows."""
    def h(t):
        return float(shape(np.array([t]))[0])

    return min(-numdiff.richardson_second_derivative(h, t)
               for t in _CURVATURE_POINTS)


def _envelope_log_constant(shape: Callable, beta: float,
                           env_sd: float) -> tuple:
    """(log M, p) from one evaluation of beta*h on the grid of +-12 env_sd.

    log M is the grid supremum of beta*h(t) - log phi(t; 0, env_sd^2)
    plus a margin.  p = Z / M is the probability that a proposal is
    accepted, Z the integral of exp(beta*h) by the trapezoid rule on the
    same grid.
    """
    grid = env_sd * np.linspace(-_GRID_HALF_WIDTH, _GRID_HALF_WIDTH, _GRID_POINTS)
    beta_h = beta * np.asarray(shape(grid), dtype=float)
    log_ratio = (beta_h + 0.5 * (grid / env_sd) ** 2
                 + math.log(env_sd * math.sqrt(2.0 * math.pi)))
    if not np.all(np.isfinite(log_ratio)):
        k = int(np.flatnonzero(~np.isfinite(log_ratio))[0])
        raise EnvelopeViolationError(
            grid[k], f"envelope validation failed: non-finite density ratio "
                     f"at x = {grid[k]:.6g}")
    log_m = float(np.max(log_ratio)) + 1e-6 * (1.0 + beta)
    f = np.exp(beta_h)
    z = (grid[1] - grid[0]) * (f.sum() - 0.5 * (f[0] + f[-1]))
    return log_m, float(z) * math.exp(-log_m)


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
                     log_env_norm: float, log_m: float, m: int, rng,
                     out: np.ndarray, h_out: np.ndarray) -> int:
    """One rejection round of m <= `_BLOCK` proposals from the envelope
    N(0, env_sd^2), scored as one block.

    A proposal t is accepted when log U < beta*h(t) - log phi(t) - log_m,
    i.e. with probability exp(beta*h(t)) / (M phi(t)).  Draws the m
    normals, evaluates the shape and the acceptance log-ratios once, then
    draws the m uniforms into the spent temporary; the accepted draws and
    their h values are written into `out` and `h_out` until those are
    full.  Returns the number of entries filled.

    Every proposal is checked before any uniform is drawn: raises
    EnvelopeViolationError naming the first abscissa whose log acceptance
    ratio is NaN (a NaN shape value) or, failing that, the first one with
    the largest positive ratio.
    """
    t = rng.standard_normal(m)
    t *= env_sd
    h = np.asarray(shape(t), dtype=float)
    log_acc, sq = _log_acceptance(t, h, beta, env_sd, log_env_norm, log_m)
    worst = float(log_acc.max())  # NaN if any entry is NaN
    if not worst <= 0.0:
        bad = float(t[np.argmax(log_acc)])  # argmax finds the first NaN
        raise EnvelopeViolationError(
            bad, f"rejection envelope violated at x = {bad:.6g} "
                 f"(log acceptance ratio {worst:.3e}, must be <= 0)")
    u = rng.random(m, out=sq)  # sq is spent; its buffer takes the uniforms
    np.negative(u, out=u)
    keep = np.flatnonzero(np.log1p(u, out=u) < log_acc)[:out.size]
    out[:keep.size] = t[keep]
    h_out[:keep.size] = h[keep]
    return keep.size


def _sample_tempered_coords(shape: Callable, beta: float, env_sd: float,
                            log_m: float, n_coords: int, rng,
                            accept: float) -> tuple:
    """Draw n_coords iid values with density proportional to exp(beta*h).

    Rejection from the envelope N(0, env_sd^2) scaled by exp(log_m), in
    rounds of `_rejection_batch`.  `accept` is the envelope's acceptance
    probability p (`_envelope_log_constant`).  A round drawn for the
    `need` draws still missing proposes
    min(ceil(need / p * 1.01 + 3 sqrt(need)) + 64, `_BLOCK`): its mean
    number accepted, 1.01 need + 3 p sqrt(need) + 64 p, clears `need` by
    over three binomial standard deviations (sqrt(need (1 - p))) once
    p > 0.62, so a second round is rare unless `_BLOCK` caps the first,
    and few accepted draws are left over.

    Returns (draws, h(draws)).  Each h value is copied from the shape
    evaluation the draw's acceptance test already made, so callers never
    evaluate the shape at the draws again.
    """
    out = np.empty(n_coords)
    h_out = np.empty(n_coords)
    filled = 0
    log_env_norm = math.log(env_sd * math.sqrt(2.0 * math.pi))
    while filled < n_coords:
        need = n_coords - filled
        m = min(math.ceil(need / accept * 1.01 + 3.0 * math.sqrt(need)) + 64,
                _BLOCK)
        filled += _rejection_batch(shape, beta, env_sd, log_env_norm, log_m,
                                   m, rng, out[filled:], h_out[filled:])
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


def _worker_count(n_dims: int) -> int:
    """Threads for the dimension grid: one per dimension, at most one per
    CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return min(n_dims, cpus)


def _dimension(cfg: ScalingExperimentConfig, d: int, abs_h2: float,
               predicted: float) -> ScalingRow:
    """Observed leap acceptance at dimension d, from its own stream."""
    beta = cfg.ell * d
    env_sd = _ENV_WIDEN / math.sqrt(beta * cfg.env_curvature)
    log_m, accept = _envelope_log_constant(cfg.shape, beta, env_sd)
    rng = StreamFactory(cfg.seed).stream(SCALING_STREAM, counter=d)
    prop_sd = 1.0 / math.sqrt(beta * abs_h2)
    rows = max(_BLOCK // d, 1)
    vals = np.empty(cfg.samples)
    for lo in range(0, cfg.samples, rows):
        hi = min(lo + rows, cfg.samples)
        x, hx = _sample_tempered_coords(cfg.shape, beta, env_sd, log_m,
                                        (hi - lo) * d, rng, accept)
        gx_sums = _g_row_sums(x.reshape(-1, d), hx.reshape(-1, d), abs_h2)
        # y is drawn after all x of the chunk
        y = prop_sd * rng.standard_normal((hi - lo, d))
        b = _leap_log_ratios(cfg.shape, beta, abs_h2, gx_sums, y)
        vals[lo:hi] = np.where(b >= 0.0, 1.0, np.exp(b))
        del x, hx, y  # freed before the next chunk's draws are allocated
    observed = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(cfg.samples))
    logger.info("scaling d=%d beta=%.3g observed=%.4f (se %.4f) "
                "predicted=%.4f", d, beta, observed, stderr, predicted)
    return ScalingRow(d=d, beta=float(beta), observed_rate=observed,
                      mc_stderr=stderr, predicted_rate=predicted)


def scaling_experiment(cfg: ScalingExperimentConfig) -> list:
    """Observed vs predicted leap acceptance along the dimension grid.

    The dimensions run on `_worker_count` threads, largest first; the
    rows come back in `cfg.dims` order.  A failure in one dimension
    cancels those not yet started and is raised here.
    """
    from concurrent.futures import ThreadPoolExecutor

    h2 = float(cfg.shape.h2())
    predicted = predicted_acceptance(float(cfg.shape.h3()), h2, cfg.ell)
    abs_h2 = -h2
    n = len(cfg.dims)
    order = sorted(range(n), key=lambda i: -cfg.dims[i])
    with ThreadPoolExecutor(max_workers=_worker_count(n)) as pool:
        rows = dict(zip(order, pool.map(
            lambda i: _dimension(cfg, cfg.dims[i], abs_h2, predicted), order)))
    return [rows[i] for i in range(n)]
