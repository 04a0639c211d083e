"""Within-temperature and between-temperature chain kernels.

Random-walk Metropolis, standard and transformation-aided (QuanTA)
temperature swaps, and mode leaps from the registry's Gaussian mixture.
Moves follow from the level target: a HAT level's registry snapshot
gives mode-local RWM steps and QuanTA mode points, a power-tempered
level gets the plain random walk.  All acceptance ratios are formed and
compared in log space.

Each decision takes exactly one uniform, drawn by its caller: the RWM
and swap decisions take it as the argument `u`, so a caller may draw
the uniforms of many decisions in one call.  The mode-leap kernel draws
its own.

An RWM step is three calls: `rwm_propose` forms the proposal from a
drawn z ~ N(0, I), the caller evaluates it (`rwm_evaluate`, or a
batched call over many levels), and `rwm_decide` accepts or rejects
with the step's uniform.  `rwm_core` draws z, then u, and composes the
three for a single chain, so there is one RWM formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hat import gaussian_log_pdf_terms
from .linalg import LOG_2PI, logsumexp_1d
from .registry import RegistrySnapshot

LOCAL = "local"
LEAP = "leap"


def _accept(log_ratio: float, u: float) -> bool:
    # NaN log-ratio (e.g. -inf minus -inf) compares false: auto-reject
    return bool(np.log(u) < log_ratio)


def _proposal_log_density(diff: np.ndarray, chol: np.ndarray, log_det: float,
                          scale: float) -> float:
    from scipy.linalg import solve_triangular
    d = diff.shape[0]
    z = solve_triangular(chol, diff, lower=True, check_finite=False) / scale
    return -0.5 * (d * LOG_2PI + log_det + 2.0 * d * np.log(scale)
                   + float(z @ z))


def rwm_propose(x: np.ndarray, target, step_scale, z: np.ndarray,
                a_x: int | float | None = None):
    """The RWM proposal from x for the drawn z ~ N(0, I); returns (y, a_x).

    On a HAT level (one with a registry snapshot) `a_x` is the allocation
    index of x, computed here when None, and the step is the allocated
    mode's Cholesky factor times step_scale / sqrt(beta) applied to z.
    Elsewhere the step is step_scale * z and `a_x` is passed through
    unchanged; there x may also be an (L, dim) block of states, z the
    block of their draws and step_scale an (L, 1) column of scales.
    """
    snapshot = getattr(target, "snapshot", None)
    if snapshot is None:
        return x + step_scale * z, a_x
    if a_x is None:
        a_x = target.allocate_index(x)
    scale = step_scale / np.sqrt(target.beta)
    return x + scale * (snapshot.chols[a_x] @ z), a_x


def rwm_evaluate(target, y: np.ndarray):
    """(log density of y, its statistic) as `rwm_decide` takes them: the
    allocation on a HAT level, log pi on a power level (a `PowerTarget`),
    None on any other target."""
    if getattr(target, "snapshot", None) is not None:
        return target.value_and_alloc(y)
    value_and_base = getattr(target, "value_and_base", None)
    if value_and_base is None:
        return target.log_density(y), None
    return value_and_base(y)


def rwm_decide(x: np.ndarray, logp_x: float, a_x, y: np.ndarray, u: float,
               logp_y: float, a_y, target, step_scale: float):
    """Accept or reject the proposal y of `rwm_propose`, evaluated as
    `rwm_evaluate` does, with the step's uniform u; returns
    (x', logp', a', accepted).

    `a_x` and `a_y` are the statistics of x and y, carried so that
    repeated steps evaluate each point once.  On a HAT level whose
    allocation changed the Hastings correction is applied.
    """
    log_ratio = logp_y - logp_x
    snapshot = getattr(target, "snapshot", None)
    if snapshot is not None and a_y != a_x and np.isfinite(logp_y):
        # allocation changed: the frozen-L proposal is no longer
        # symmetric, so apply the Hastings correction
        scale = step_scale / np.sqrt(target.beta)
        diff = y - x
        fwd = _proposal_log_density(diff, snapshot.chols[a_x],
                                    snapshot.log_dets[a_x], scale)
        rev = _proposal_log_density(-diff, snapshot.chols[a_y],
                                    snapshot.log_dets[a_y], scale)
        log_ratio += rev - fwd
    if _accept(log_ratio, u):
        return y, logp_y, a_y, True
    return x, logp_x, a_x, False


def rwm_core(x: np.ndarray, logp_x: float, target, step_scale: float,
             rng: np.random.Generator):
    """One RWM step of a single chain: draw z, then u, and propose ->
    evaluate -> decide; returns (x', logp', accepted)."""
    z = rng.standard_normal(x.shape[0])
    u = rng.random()
    y, a_x = rwm_propose(x, target, step_scale, z)
    logp_y, a_y = rwm_evaluate(target, y)
    x, logp, _, accepted = rwm_decide(x, logp_x, a_x, y, u, logp_y, a_y,
                                      target, step_scale)
    return x, logp, accepted


def quanta_transform(x: np.ndarray, beta_from: float, beta_to: float,
                     mu: np.ndarray) -> np.ndarray:
    """Affine rescaling (beta_from/beta_to)^{1/2} (x - mu) + mu."""
    if beta_from <= 0 or beta_to <= 0:
        raise ValueError("temperatures must be positive")
    return np.sqrt(beta_from / beta_to) * (x - mu) + mu


@dataclass
class SwapResult:
    accepted: bool
    log_ratio: float
    x_low: np.ndarray
    x_high: np.ndarray
    logp_low: float
    logp_high: float


def quanta_swap_core(x_k: np.ndarray, x_k1: np.ndarray, logp_k: float,
                     logp_k1: float, target_k, target_k1,
                     u: float) -> SwapResult:
    """QuanTA exchange between neighbouring HAT levels k and k+1, decided
    by the uniform `u`: each state is rescaled about its allocated mode
    point to the other level's temperature."""
    beta_k, beta_k1 = target_k.beta, target_k1.beta
    snapshot = target_k.snapshot
    m1 = target_k.allocate_index(x_k)
    m2 = target_k1.allocate_index(x_k1)
    y_k = quanta_transform(x_k, beta_k, beta_k1, snapshot.mus[m1])
    y_k1 = quanta_transform(x_k1, beta_k1, beta_k, snapshot.mus[m2])
    lp_yk_at_k1 = target_k1.log_density(y_k)
    lp_yk1_at_k = target_k.log_density(y_k1)
    log_ratio = (lp_yk_at_k1 + lp_yk1_at_k) - (logp_k + logp_k1)
    if _accept(log_ratio, u):
        return SwapResult(True, log_ratio, y_k1, y_k, lp_yk1_at_k, lp_yk_at_k1)
    return SwapResult(False, log_ratio, x_k, x_k1, logp_k, logp_k1)


def standard_swap_core(x_k: np.ndarray, x_k1: np.ndarray, logp_k: float,
                       logp_k1: float, target_k, target_k1, u: float,
                       logpi: tuple | None = None) -> SwapResult:
    """Exchange proposal between neighbouring levels k and k+1, decided
    by the uniform `u`.

    On power levels `logpi` may carry (log pi(x_k), log pi(x_k1)); the
    cross terms are then beta * log pi, the product a `PowerTarget`
    evaluates, so no density is evaluated and the result is unchanged.
    """
    if logpi is None:
        lp_xk1_at_k = target_k.log_density(x_k1)
        lp_xk_at_k1 = target_k1.log_density(x_k)
    else:
        lp_xk1_at_k = target_k.beta * logpi[1]
        lp_xk_at_k1 = target_k1.beta * logpi[0]
    log_ratio = (lp_xk1_at_k + lp_xk_at_k1) - (logp_k + logp_k1)
    if _accept(log_ratio, u):
        return SwapResult(True, log_ratio, x_k1, x_k, lp_xk1_at_k, lp_xk_at_k1)
    return SwapResult(False, log_ratio, x_k, x_k1, logp_k, logp_k1)


def mixture_propose(snapshot: RegistrySnapshot, beta: float,
                    rng: np.random.Generator) -> np.ndarray:
    """Draw from the registry's Laplace mixture at temperature beta."""
    if snapshot.n_modes == 0:
        raise ValueError("no modes discovered")
    u = rng.random()
    cum = np.cumsum(np.exp(snapshot.log_weights))
    j = int(np.searchsorted(cum, u * cum[-1]))
    j = min(j, snapshot.n_modes - 1)
    z = rng.standard_normal(snapshot.dim)
    return snapshot.mus[j] + (snapshot.chols[j] @ z) / np.sqrt(beta)


def mixture_log_density(snapshot: RegistrySnapshot, beta: float,
                        y: np.ndarray) -> float:
    if snapshot.n_modes == 0:
        raise ValueError("no modes discovered")
    qf = snapshot.quad_forms(np.asarray(y, dtype=float))
    return logsumexp_1d(snapshot.log_weights
                        + gaussian_log_pdf_terms(snapshot, qf, beta))


def leap_log_ratio(x: np.ndarray, y: np.ndarray, target,
                   logp_x: float | None = None,
                   logp_y: float | None = None) -> float:
    """Independence-sampler log acceptance ratio for the mixture proposal
    y from x at the level's temperature; log densities not given are
    evaluated."""
    if logp_x is None:
        logp_x = target.log_density(x)
    if logp_y is None:
        logp_y = target.log_density(y)
    lq_x = mixture_log_density(target.snapshot, target.beta, x)
    lq_y = mixture_log_density(target.snapshot, target.beta, y)
    return (logp_y + lq_x) - (logp_x + lq_y)


def mode_leap_core(x: np.ndarray, logp_x: float, target, step_scale: float,
                   rng: np.random.Generator):
    """Algorithm: coin-flip between a local RWM move and a mixture leap.

    Returns (x', logp', move_type, accepted).
    """
    if rng.random() < 0.5:
        y, logp_y, accepted = rwm_core(x, logp_x, target, step_scale, rng)
        return y, logp_y, LOCAL, accepted
    y = mixture_propose(target.snapshot, target.beta, rng)
    u = rng.random()
    logp_y = target.log_density(y)
    log_ratio = leap_log_ratio(x, y, target, logp_x, logp_y)
    if _accept(log_ratio, u):
        return y, logp_y, LEAP, True
    return x, logp_x, LEAP, False
