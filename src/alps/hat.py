"""Ladder levels: one class, `Level`, for the power-tempered,
Hessian-adjusted tempered (HAT) and truncated HAT targets.

A HAT target at inverse temperature beta rescales the base density per
mode so that every registered mode keeps its height log pi(mu_j) at all
temperatures, which makes the annealed levels locally Gaussian without
starving low modes of mass.

A level's value and allocation at x depend on x only through its chain
record (x, log pi(x), qf(x)), qf(x) being the quad forms of x against
the J registered modes.  `level_values` turns a block of records of
many levels at once into values for every level, and a level prices one
record as a block of one (`Level.value`), so there is one value
formula.  A power level pi^beta is its J = 0 case, whose record carries
an empty qf row and whose value is beta * log pi, and a truncated level
is one with a finite radius.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np
from scipy.special import gammaincinv

from .density import TargetDensity
from .linalg import LOG_2PI
from .registry import RegistrySnapshot


class ChainRecord(tuple):
    """(x, log pi(x), qf(x)): a chain state with log pi and its quad forms
    against the level snapshot's modes ((J,), empty on power levels).

    Built from one tuple, `ChainRecord((x, logpi, qf))`, by tuple's own
    constructor, a fraction of the cost of a NamedTuple's: the hot chain
    builds one per step.  The ladder's chains keep theirs as the rows of
    the run's block, and its phases and kernels take rows, not records.
    """

    __slots__ = ()
    x = property(itemgetter(0))
    logpi = property(itemgetter(1))
    qf = property(itemgetter(2))


def allocation_scores(snapshot: RegistrySnapshot, quad_forms: np.ndarray,
                      beta: float) -> np.ndarray:
    """Per-mode scores whose argmax is A_(x,beta).

    Score_j = log w_j + log phi(x | mu_j, Sigma_j / beta) with the terms
    shared across j dropped.
    """
    return snapshot.score_base - 0.5 * beta * quad_forms


def allocate_mode(x: np.ndarray, beta: float,
                  snapshot: RegistrySnapshot) -> int:
    """Index of the mode whose tempered Laplace component best explains x.

    Ties resolve to the lowest index (argmax returns the first maximum).
    """
    if snapshot.n_modes == 0:
        raise ValueError("no modes discovered")
    qf = snapshot.quad_forms(np.asarray(x, dtype=float))
    return int(np.argmax(allocation_scores(snapshot, qf, beta)))


def quad_forms(snapshot: RegistrySnapshot | None, x: np.ndarray) -> np.ndarray:
    """qf of a point (dim,) or of the rows of an (L, dim) block against
    the snapshot's modes; without a snapshot, empty rows."""
    if snapshot is None:
        return x[..., :0]
    return snapshot.quad_forms(x)


def level_values(snapshot: RegistrySnapshot | None, beta: np.ndarray,
                 logpi: np.ndarray, qf: np.ndarray, radius=np.inf):
    """(values, allocations) of a block of L chain records (log pi, qf)
    at inverse temperatures beta: beta is an (L,) array, logpi has L
    entries and qf L rows of J quad forms, and radius is an (L,) array or
    one radius for all rows.  Computed as array operations: one score
    matrix and its argmax at beta and at 1, then a selection among the
    value branches.

    Without a snapshot (J = 0) a value is beta * log pi and its
    allocation 0.  Otherwise a is the allocation at beta.  While it
    agrees with the allocation at 1 the value is beta log pi(x) +
    (1 - beta) log pi(mu_a), arranged so that x = mu_a gives log pi(mu_a)
    exactly; else it is log G(x, beta), where the Gaussian normalizer
    cancels to leave the quad form.  At beta = 1 it is log pi(x).  States
    whose quad form against mode a reaches `radius` have value -inf.
    """
    logpi = np.asarray(logpi, dtype=float)
    if snapshot is None:
        return beta * logpi, np.zeros(beta.size, dtype=int)
    qf = np.asarray(qf, dtype=float)
    a = np.argmax(allocation_scores(snapshot, qf, beta[:, None]), axis=1)
    a_one = np.argmax(allocation_scores(snapshot, qf, 1.0), axis=1)
    qf_a = qf[np.arange(beta.size), a]
    mode = snapshot.log_pi_at_modes[a]
    value = np.where(a == a_one, mode + beta * (logpi - mode),
                     mode - 0.5 * beta * qf_a)
    value = np.where(beta == 1.0, logpi, value)
    return np.where(qf_a >= radius, -np.inf, value), a


class Level:
    """One level at inverse temperature beta as an object: its value at a
    chain record is `level_values`.

    A run builds one, the target of its hot exploration chain; the
    ladder's levels are the run's arrays (betas, radii and its snapshot,
    `runner._Run`), which its phases price with `level_values` directly.
    Without a snapshot (J = 0) a level is the plain power pi^beta, where
    no mode information is available.  On a registry snapshot it is the
    HAT target; a finite `radius` restricts it to the allocated mode's
    Mahalanobis ball, in squared-Mahalanobis units of that mode's
    untempered Sigma.
    """

    def __init__(self, base: TargetDensity, beta: float,
                 snapshot: RegistrySnapshot | None = None,
                 radius: float = np.inf):
        if beta <= 0:
            raise ValueError("beta must be positive")
        if snapshot is not None:
            if snapshot.n_modes == 0:
                raise ValueError("no modes discovered")
            if snapshot.dim != base.dim:
                raise ValueError("snapshot dimension does not match target")
        elif radius != np.inf:
            raise ValueError("truncation needs a registry snapshot")
        if not radius > 0:
            raise ValueError("truncation radius q must be positive")
        self.base, self.beta, self.dim = base, float(beta), base.dim
        self.snapshot, self.radius = snapshot, float(radius)

    def record(self, x: np.ndarray) -> ChainRecord:
        """The record of x: one base and one quad-form evaluation."""
        x = np.asarray(x, dtype=float)
        return ChainRecord((x, self.base.log_density(x),
                            quad_forms(self.snapshot, x)))

    def value(self, rec: ChainRecord) -> tuple[float, int]:
        """(log density, allocation index) of a record, `level_values` of
        a block of one; evaluates nothing."""
        value, a = level_values(self.snapshot, np.array([self.beta]),
                                [rec.logpi], [rec.qf], self.radius)
        return float(value[0]), int(a[0])

    def value_and_alloc(self, x: np.ndarray) -> tuple[float, int]:
        """(log density, allocation index) of the record of x."""
        return self.value(self.record(x))

    def log_density(self, x: np.ndarray) -> float:
        return self.value_and_alloc(x)[0]

    def allocate_index(self, x: np.ndarray) -> int:
        return allocate_mode(x, self.beta, self.snapshot)


# kept only for perfbench/tracer.py, which patches the level methods
# through these names; no run calls the patched methods
HatTarget = TruncatedHatTarget = Level


def chi2_quantile(level: float, dim: int) -> float:
    """Chi-squared quantile: 2 P^-1(dim / 2, level), P the regularized
    lower incomplete gamma function (what `scipy.stats.chi2.ppf`
    computes)."""
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if dim < 1:
        raise ValueError("dim must be positive")
    return float(2.0 * gammaincinv(0.5 * dim, level))


def gaussian_log_pdf_terms(snapshot: RegistrySnapshot, qf: np.ndarray,
                           beta: float) -> np.ndarray:
    """log phi(x | mu_j, Sigma_j / beta) for all j, from shared quad forms."""
    d = snapshot.dim
    return (-0.5 * d * LOG_2PI - 0.5 * snapshot.log_dets
            + 0.5 * d * np.log(beta) - 0.5 * beta * qf)
