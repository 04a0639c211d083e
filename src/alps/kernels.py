"""Within-temperature and between-temperature chain kernels.

Random-walk Metropolis, standard and transformation-aided (QuanTA)
temperature swaps, and mode leaps from the registry's Gaussian mixture.
Moves follow from the level (`hat.Level`): a level on a registry
snapshot (HAT, truncated or not) gives mode-local RWM steps and QuanTA
mode points, a level without one (a plain power) gets the plain random
walk.  All acceptance ratios are formed and compared in log space.

Each chain carries its record (x, log pi(x), qf(x)) (`hat.ChainRecord`)
and its level value.  A kernel evaluates the base density and the quad
forms once per new point, at the point's record; every value, allocation
and mixture density it needs at a carried state it reads from the
state's record (`level.value`).

Each decision takes exactly one uniform, drawn by its caller: the RWM
and swap decisions take it as the argument `u`, so a caller may draw
the uniforms of many decisions in one call.  The mode-leap kernel draws
its own.

An RWM step is three parts: `rwm_propose` forms the proposal from a
drawn z ~ N(0, I), the caller scores its record (one point, or a block
of points of many levels at once), and `rwm_decide` accepts or rejects
with the step's uniform.  `rwm_core` draws z, then u, and composes the
three for a single chain, so there is one RWM formula.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hat import ChainRecord, gaussian_log_pdf_terms
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


def rwm_propose(x: np.ndarray, snapshot: RegistrySnapshot | None, beta,
                step_scale, z: np.ndarray, a_x) -> np.ndarray:
    """The RWM proposal from x for the drawn z ~ N(0, I).

    Without a snapshot (a power level) the step is step_scale * z.  On a
    HAT level it is the Cholesky factor of x's allocated mode `a_x`
    times step_scale / sqrt(beta) applied to z.  x may also be an
    (L, dim) block of states, z the block of their draws, a_x their (L,)
    allocations and beta and step_scale (L, 1) columns.
    """
    if snapshot is None:
        return x + step_scale * z
    scale = step_scale / np.sqrt(beta)
    return x + scale * np.matmul(snapshot.chols[a_x], z[..., None])[..., 0]


def rwm_decide(x: np.ndarray, logp_x: float, a_x, y: np.ndarray, u: float,
               logp_y: float, a_y, target, step_scale: float):
    """Accept or reject the proposal y of `rwm_propose`, whose value and
    allocation at the level are logp_y and a_y, with the step's uniform
    u; returns (x', logp', a', accepted).

    On a HAT level whose allocation changed the Hastings correction is
    applied.
    """
    log_ratio = logp_y - logp_x
    snapshot = target.snapshot
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


def rwm_core(rec: ChainRecord, logp_x: float, target, step_scale: float,
             rng: np.random.Generator):
    """One RWM step of a single chain: draw z, then u, and propose ->
    score -> decide; returns (record', logp', accepted)."""
    x = rec.x
    z = rng.standard_normal(x.shape[0])
    u = rng.random()
    _, a_x = target.value(rec)
    y = rwm_propose(x, target.snapshot, target.beta, step_scale, z, a_x)
    rec_y = target.record(y)
    logp_y, a_y = target.value(rec_y)
    _, logp, _, accepted = rwm_decide(x, logp_x, a_x, y, u, logp_y, a_y,
                                      target, step_scale)
    return (rec_y if accepted else rec), logp, accepted


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
    low: ChainRecord     # the record now at level k
    high: ChainRecord    # the record now at level k + 1
    logp_low: float
    logp_high: float


def quanta_swap_core(rec_k: ChainRecord, rec_k1: ChainRecord, logp_k: float,
                     logp_k1: float, target_k, target_k1,
                     u: float) -> SwapResult:
    """QuanTA exchange between neighbouring HAT levels k and k+1, decided
    by the uniform `u`: each state is rescaled about its allocated mode
    point to the other level's temperature."""
    beta_k, beta_k1 = target_k.beta, target_k1.beta
    snapshot = target_k.snapshot
    _, m1 = target_k.value(rec_k)
    _, m2 = target_k1.value(rec_k1)
    y_k = target_k1.record(
        quanta_transform(rec_k.x, beta_k, beta_k1, snapshot.mus[m1]))
    y_k1 = target_k.record(
        quanta_transform(rec_k1.x, beta_k1, beta_k, snapshot.mus[m2]))
    lp_yk_at_k1, _ = target_k1.value(y_k)
    lp_yk1_at_k, _ = target_k.value(y_k1)
    log_ratio = (lp_yk_at_k1 + lp_yk1_at_k) - (logp_k + logp_k1)
    if _accept(log_ratio, u):
        return SwapResult(True, log_ratio, y_k1, y_k, lp_yk1_at_k, lp_yk_at_k1)
    return SwapResult(False, log_ratio, rec_k, rec_k1, logp_k, logp_k1)


def standard_swap_core(rec_k: ChainRecord, rec_k1: ChainRecord,
                       logp_k: float, logp_k1: float, target_k, target_k1,
                       u: float) -> SwapResult:
    """Exchange proposal between neighbouring levels k and k+1, decided
    by the uniform `u`; the cross values come from the two records."""
    lp_xk1_at_k, _ = target_k.value(rec_k1)
    lp_xk_at_k1, _ = target_k1.value(rec_k)
    log_ratio = (lp_xk1_at_k + lp_xk_at_k1) - (logp_k + logp_k1)
    if _accept(log_ratio, u):
        return SwapResult(True, log_ratio, rec_k1, rec_k, lp_xk1_at_k,
                          lp_xk_at_k1)
    return SwapResult(False, log_ratio, rec_k, rec_k1, logp_k, logp_k1)


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
                        qf: np.ndarray) -> float:
    """Log density at temperature beta of the registry's Laplace mixture
    at a point, from the point's quad forms qf."""
    if snapshot.n_modes == 0:
        raise ValueError("no modes discovered")
    return logsumexp_1d(snapshot.log_weights
                        + gaussian_log_pdf_terms(snapshot, qf, beta))


def leap_log_ratio(x: ChainRecord, y: ChainRecord, target, logp_x: float,
                   logp_y: float) -> float:
    """Independence-sampler log acceptance ratio for the mixture proposal
    y from x at the level's temperature, from their records and values."""
    lq_x = mixture_log_density(target.snapshot, target.beta, x.qf)
    lq_y = mixture_log_density(target.snapshot, target.beta, y.qf)
    return (logp_y + lq_x) - (logp_x + lq_y)


def mode_leap_core(rec: ChainRecord, logp_x: float, target,
                   step_scale: float, rng: np.random.Generator):
    """Algorithm: coin-flip between a local RWM move and a mixture leap.

    Returns (record', logp', move_type, accepted).
    """
    if rng.random() < 0.5:
        rec_y, logp_y, accepted = rwm_core(rec, logp_x, target, step_scale,
                                           rng)
        return rec_y, logp_y, LOCAL, accepted
    y = mixture_propose(target.snapshot, target.beta, rng)
    u = rng.random()
    rec_y = target.record(y)
    logp_y, _ = target.value(rec_y)
    log_ratio = leap_log_ratio(rec, rec_y, target, logp_x, logp_y)
    if _accept(log_ratio, u):
        return rec_y, logp_y, LEAP, True
    return rec, logp_x, LEAP, False
