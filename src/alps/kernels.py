"""Within-temperature and between-temperature chain kernels.

Random-walk Metropolis, standard and transformation-aided (QuanTA)
temperature swaps, and mode leaps from the registry's Gaussian mixture.
Moves follow from the level, its beta, its radius and the run's
registry snapshot or none: a level on a snapshot (HAT, truncated or
not) gives mode-local RWM steps and QuanTA swaps about its mode points,
a level without one (a plain power) gets the plain random walk and
standard swaps.  All acceptance ratios are formed and compared in log
space.

Each chain carries its record (x, log pi(x), qf(x)).  The ladder's
chains keep theirs as the rows of the run's block, and the ladder
kernels take what they need of them from their caller, which reads it
off the block: `mode_leap_core`, which makes all of a sweep's leaps in
one call, takes one chain's row and the level's beta and radius and
returns the new row; `standard_swap_core` decides a block of pairs at
once from four level values per pair (the chains' own values and those
of the records proposed at each level), a standard swap proposing the
other chain's record and a QuanTA swap its image; `quanta_swap_core`
builds and scores those images, a block of states rescaled about their
allocated modes, and decides nothing.  `rwm_core`, the hot chain's
step, takes the chain's record (`hat.ChainRecord`) and its level value
beside it and returns the new ones, so a caller making many moves
reads the value off the record (`level.value`) once.  A kernel
evaluates the base density and the quad forms once per new point, at
the point's record; every other value, allocation and mixture density
it needs at a carried state it reads from the state's record.

Each decision takes exactly one uniform u and compares log u with the
log ratio; a NaN ratio rejects.  The RWM and swap decisions take log u,
formed by their caller, as the argument `log_u`, so a caller may draw
the uniforms of many decisions in one call and take their logs in
another.  `rwm_core` and `mode_leap_core` draw their own.

An RWM step is three parts: `rwm_propose` forms the proposal from a
drawn z ~ N(0, I), the caller scores its record, and `rwm_decide`
accepts or rejects.  Both work on a block of rows, one chain each: the
RWM phase moves every level of the ladder in one block, one repetition
at a time.  On HAT levels a proposal that changes its allocation steps
by another mode's factor on the way back, so its ratio takes a Hastings
term; `rwm_decide` scores the terms of all such rows of a block as one
block (`_step_log_densities`).  `rwm_core` draws z, then u, and
composes the three for a single chain, a block of one row, so there is
one RWM formula.

The mode leap is an independence proposal from the registry's Laplace
mixture at the level's temperature, so its proposals do not depend on
the chain: `mode_leap_core` draws a chain's n leaps as one block
(`mixture_propose`, then the n uniforms), scores the block with one
batch evaluation, prices the block and the chain's state with one
`level_values` call and their mixture densities with one
`mixture_log_density` call, and then decides the n leaps in order on
scalars already computed.
"""

from __future__ import annotations

import numpy as np

from .hat import gaussian_log_pdf_terms, level_values, quad_forms
from .linalg import logsumexp_rows
from .registry import RegistrySnapshot


def _accept(log_ratio, log_u):
    # NaN log-ratio (e.g. -inf minus -inf) compares false: auto-reject.
    # Elementwise on arrays.
    return log_u < log_ratio


def _step_log_densities(snapshot: RegistrySnapshot, a: np.ndarray,
                        steps: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """log N(step | 0, scale^2 Sigma_a) of each row of an (m, dim) block of
    RWM steps, a its (m,) modes and scale its (m, 1) proposal scales, up
    to the terms that cancel in a Hastings ratio of two such densities
    at one scale, d log 2 pi and 2 d log scale: -0.5 (log|Sigma_a| +
    |L_a^{-1} step / scale|^2), the cached inverses applied by one
    broadcast `matmul`.  A step and its reverse, -step, have the same
    value at one mode."""
    z = np.matmul(snapshot.inv_chols[a], steps[..., None])[..., 0] / scale
    return -0.5 * (snapshot.log_dets[a] + (z * z).sum(axis=-1))


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


def rwm_decide(x: np.ndarray, logp_x: np.ndarray, a_x: np.ndarray,
               y: np.ndarray, log_u: np.ndarray, logp_y: np.ndarray,
               a_y: np.ndarray, snapshot: RegistrySnapshot | None,
               scale: np.ndarray) -> np.ndarray:
    """Accept or reject the proposals y of `rwm_propose` from the states
    x, (L, dim) blocks; returns the (L,) mask of accepted rows.

    logp_x, a_x and logp_y, a_y are the rows' values and allocations at
    their levels, log_u the logs of their uniforms and scale their
    proposal scales, step_scale / sqrt(beta).  On HAT levels (a
    snapshot) the Hastings correction is applied to each row whose
    allocation changed and whose value is finite.
    """
    with np.errstate(invalid="ignore"):  # -inf minus -inf: NaN, rejected
        log_ratio = logp_y - logp_x
    if snapshot is not None:
        # allocation changed: the frozen-L proposal is no longer
        # symmetric, so apply the Hastings correction, the reverse
        # step's density over the forward one's, to all such rows at once
        rows = np.flatnonzero((a_y != a_x) & np.isfinite(logp_y))
        if rows.size:
            step, scale = y[rows] - x[rows], scale[rows, None]
            log_ratio[rows] += (
                _step_log_densities(snapshot, a_y[rows], step, scale)
                - _step_log_densities(snapshot, a_x[rows], step, scale))
    return _accept(log_ratio, log_u)


def rwm_core(rec, logp_x: float, target, step_scale: float,
             rng: np.random.Generator):
    """One RWM step of a single chain, its record `rec` (a
    `hat.ChainRecord`) at the level `target`: draw z, then u, and
    propose -> score -> decide, the decision on a block of one row;
    returns (record', logp', accepted)."""
    x = rec.x
    z = rng.standard_normal(x.shape[0])
    log_u = np.log(rng.random())
    _, a_x = target.value(rec)
    y = rwm_propose(x, target.snapshot, target.beta, step_scale, z, a_x)
    rec_y = target.record(y)
    logp_y, a_y = target.value(rec_y)
    accepted = bool(rwm_decide(
        x[None], np.array([logp_x]), np.array([a_x]), y[None],
        np.array([log_u]), np.array([logp_y]), np.array([a_y]),
        target.snapshot, np.array([step_scale / np.sqrt(target.beta)]))[0])
    if accepted:
        return rec_y, logp_y, True
    return rec, logp_x, False


def quanta_transform(x: np.ndarray, beta_from, beta_to,
                     mu: np.ndarray) -> np.ndarray:
    """Affine rescaling (beta_from/beta_to)^{1/2} (x - mu) + mu; on a block
    of rows beta_from and beta_to are (m, 1) columns and mu (m, dim)."""
    if np.any(beta_from <= 0) or np.any(beta_to <= 0):
        raise ValueError("temperatures must be positive")
    return np.sqrt(beta_from / beta_to) * (x - mu) + mu


def quanta_swap_core(base, snapshot: RegistrySnapshot, x: np.ndarray,
                     a_x: np.ndarray, beta_x: np.ndarray, beta_y: np.ndarray):
    """The QuanTA images of a block of chain states and their records.

    x is an (r, dim) block of states on HAT levels, a_x their allocations
    and beta_x their betas there, beta_y the betas of the levels they are
    proposed for.  Each state is rescaled about its allocated mode point
    to beta_y (`quanta_transform`), and the r images are scored with one
    `log_density_batch` and one quad-form call.  Returns the images'
    records (y, log pi, qf); the caller prices and decides them.

    The map is an involution only while each image keeps its chain's
    allocation at its new level, so a swap in which either image changes
    it must be rejected (Tawn & Roberts 2018, QuanTA).
    """
    y = quanta_transform(x, beta_x[:, None], beta_y[:, None],
                         snapshot.mus[a_x])
    return y, base.log_density_batch(y), quad_forms(snapshot, y)


def standard_swap_core(logp_k, logp_k1, cross_k, cross_k1, log_u):
    """Whether to exchange the states of neighbouring levels k and k+1,
    decided by the log uniform `log_u`: logp_k and logp_k1 are their
    values at their own levels, cross_k the value at level k of the state
    proposed there and cross_k1 that at level k+1 of the one proposed
    there.  Elementwise on arrays, one entry per pair."""
    return _accept((cross_k + cross_k1) - (logp_k + logp_k1), log_u)


def mixture_propose(snapshot: RegistrySnapshot, beta: float, n: int,
                    rng: np.random.Generator) -> np.ndarray:
    """n draws from the registry's Laplace mixture at temperature beta,
    an (n, dim) block: the n component uniforms first, then one (n, dim)
    block of z ~ N(0, I); row r is mu_j + L_j z_r / sqrt(beta), j the
    component of the r-th uniform."""
    if snapshot.n_modes == 0:
        raise ValueError("no modes discovered")
    u = rng.random(n)
    cum = np.cumsum(np.exp(snapshot.log_weights))
    j = np.minimum(np.searchsorted(cum, u * cum[-1]), snapshot.n_modes - 1)
    z = rng.standard_normal((n, snapshot.dim))
    steps = np.matmul(snapshot.chols[j], z[..., None])[..., 0]
    return snapshot.mus[j] + steps / np.sqrt(beta)


def mixture_log_density(snapshot: RegistrySnapshot, beta: float,
                        qf: np.ndarray) -> np.ndarray:
    """Log densities at temperature beta of the registry's Laplace
    mixture at a block of points, from their (L, J) quad forms qf; (L,),
    one `logsumexp_rows` over the block."""
    if snapshot.n_modes == 0:
        raise ValueError("no modes discovered")
    return logsumexp_rows(snapshot.log_weights
                          + gaussian_log_pdf_terms(snapshot, qf, beta))


def mode_leap_core(base, snapshot: RegistrySnapshot, beta: float,
                   radius: float, x: np.ndarray, logpi: float, qf: np.ndarray,
                   n: int, rng: np.random.Generator):
    """n mode leaps of one chain, its record (x, logpi, qf), at the HAT
    level of `snapshot`, beta and radius, drawn and scored as one block;
    returns ((x', logpi', qf'), leaps accepted).

    The draws are the n proposals (`mixture_propose` at beta) and then
    the n decision uniforms.  The proposals' records come from one
    `log_density_batch` and one quad-form call; the level values of the
    chain's state and of the proposals come from one `level_values` call
    on the n + 1 records, and their mixture densities from one
    `mixture_log_density` call.  Then the leaps are decided in order:
    leap r compares log u_r with the independence-sampler log ratio
    (logp(y_r) + log q(x)) - (logp(x) + log q(y_r)) from the chain's
    current state x, which an accepted leap replaces.
    """
    y = mixture_propose(snapshot, beta, n, rng)
    log_u = np.log(rng.random(n)).tolist()
    logpi_y = base.log_density_batch(y)
    qf_y = quad_forms(snapshot, y)
    qf_all = np.vstack((qf, qf_y))
    logp_x, *logp_y = level_values(snapshot, np.full(n + 1, beta),
                                   np.r_[logpi, logpi_y], qf_all,
                                   radius)[0].tolist()
    lq_x, *lq_y = mixture_log_density(snapshot, beta, qf_all).tolist()
    accepted = 0
    for r in range(n):
        if _accept((logp_y[r] + lq_x) - (logp_x + lq_y[r]), log_u[r]):
            x, logpi, qf = y[r], logpi_y[r], qf_y[r]
            logp_x, lq_x = logp_y[r], lq_y[r]
            accepted += 1
    return (x, logpi, qf), accepted
