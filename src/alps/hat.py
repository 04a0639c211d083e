"""Ladder levels: one class, `Level`, for the power-tempered,
Hessian-adjusted tempered (HAT) and truncated HAT targets.

A HAT target at inverse temperature beta rescales the base density per
mode so that every registered mode keeps its height log pi(mu_j) at all
temperatures, which makes the annealed levels locally Gaussian without
starving low modes of mass.

A level's value and allocation at x depend on x only through its chain
record (x, log pi(x), qf(x)), qf(x) being the quad forms of x against
the J registered modes.  `level_values` turns records into values row by
row, for every level; a power level pi^beta is its J = 0 case, whose
record carries an empty qf row and whose value is beta * log pi, and a
truncated level is one with a finite radius.
"""

from __future__ import annotations

from operator import itemgetter

import numpy as np
from scipy.special import gammainc, ndtri

from .density import TargetDensity
from .linalg import LOG_2PI
from .registry import RegistrySnapshot


class ChainRecord(tuple):
    """(x, log pi(x), qf(x)): a chain state with log pi and its quad forms
    against the level snapshot's modes ((J,), empty on power levels).

    Built from one tuple, `ChainRecord((x, logpi, qf))`, by tuple's own
    constructor, a fraction of the cost of a NamedTuple's: the RWM phase
    builds one per level every sweep.
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


def level_values(snapshot: RegistrySnapshot | None, beta, logpi, qf,
                 radius=np.inf):
    """(value, allocation) at inverse temperature beta of a chain record
    (log pi, qf), qf the (J,) quad forms.  For a block of L records beta
    and radius are (L,) arrays and logpi and qf sequences of L entries,
    and the values and allocations come back as two lists.

    Without a snapshot (J = 0) the value is beta * log pi and the
    allocation 0.  Otherwise a is the allocation at beta.  While it
    agrees with the allocation at 1 the value is beta log pi(x) +
    (1 - beta) log pi(mu_a), arranged so that x = mu_a gives log pi(mu_a)
    exactly; else it is log G(x, beta), where the Gaussian normalizer
    cancels to leave the quad form.  At beta = 1 it is log pi(x).  States
    whose quad form against mode a reaches `radius` have value -inf.
    """
    if isinstance(beta, np.ndarray):
        if snapshot is None:  # one multiplication for the whole block
            return (beta * logpi).tolist(), [0] * len(beta)
        rows = [level_values(snapshot, *row) for row in zip(
            beta.tolist(), logpi, qf, radius.tolist())]
        return [value for value, _ in rows], [a for _, a in rows]
    if snapshot is None:
        return beta * logpi, 0
    a = int(np.argmax(allocation_scores(snapshot, qf, beta)))
    qf_a = float(qf[a])
    if qf_a >= radius:
        return -np.inf, a
    if beta == 1.0:
        return logpi, a
    mode = float(snapshot.log_pi_at_modes[a])
    if a == int(np.argmax(allocation_scores(snapshot, qf, 1.0))):
        return mode + beta * (logpi - mode), a
    return mode - 0.5 * beta * qf_a, a


class Level:
    """A ladder level at inverse temperature beta: its value at a chain
    record is `level_values`.

    Without a snapshot (J = 0) it is the plain power pi^beta: the levels
    of the parallel-tempering baseline and the hot exploration chains,
    where no mode information is available.  On a registry snapshot it is
    the HAT target; a finite `radius` restricts it to the allocated mode's
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
        """(log density, allocation index) of a record; evaluates nothing."""
        _, logpi, qf = rec
        return level_values(self.snapshot, self.beta, logpi, qf, self.radius)

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
    """Chi-squared quantile via Wilson-Hilferty refined by bisection.

    Bisection runs on the regularized lower incomplete gamma, so the
    result is exact to the bracket width (1e-12 relative).
    """
    if not 0.0 < level < 1.0:
        raise ValueError("level must be in (0, 1)")
    if dim < 1:
        raise ValueError("dim must be positive")
    z = ndtri(level)
    c = 2.0 / (9.0 * dim)
    guess = dim * (1.0 - c + z * np.sqrt(c)) ** 3
    guess = max(guess, 1e-8)

    def cdf(x: float) -> float:
        return float(gammainc(0.5 * dim, 0.5 * x))

    lo, hi = guess, guess
    while cdf(lo) > level:
        lo *= 0.5
    while cdf(hi) < level:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cdf(mid) < level:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def gaussian_log_pdf_terms(snapshot: RegistrySnapshot, qf: np.ndarray,
                           beta: float) -> np.ndarray:
    """log phi(x | mu_j, Sigma_j / beta) for all j, from shared quad forms."""
    d = snapshot.dim
    return (-0.5 * d * LOG_2PI - 0.5 * snapshot.log_dets
            + 0.5 * d * np.log(beta) - 0.5 * beta * qf)
