"""One-point kernel formulas that only tests read.

The kernels score their points in blocks: the RWM Hastings terms of a
block's flipped rows through the snapshot's cached inverse factors, and
a leap's mixture densities through one `logsumexp_rows`.  These are the
same quantities for one point, written out: the proposal density by a
triangular solve with every normalizing term kept, and the mixture
density by scipy's logsumexp.  Block and one-point forms may round
differently in the last bit, so tests compare the decisions they lead
to, not the log ratios.

A run keeps its ladder as arrays; `run_level` and `row_record` give
the references one level and one chain of it as the objects that price
one record.
"""

import numpy as np
from scipy.special import logsumexp

from alps.hat import ChainRecord, Level, gaussian_log_pdf_terms
from alps.linalg import LOG_2PI, solve_lower


def proposal_log_density(diff, chol, log_det, scale):
    """log N(diff | 0, scale^2 L L^T) for the lower factor L = chol."""
    d = diff.shape[0]
    z = solve_lower(chol, diff) / scale
    return -0.5 * (d * LOG_2PI + log_det + 2.0 * d * np.log(scale)
                   + float(z @ z))


def hastings_term(snapshot, diff, a_x, a_y, scale):
    """log q(x | y) - log q(y | x) of an RWM step diff = y - x from mode
    a_x's factor to mode a_y's."""
    fwd = proposal_log_density(diff, snapshot.chols[a_x],
                               snapshot.log_dets[a_x], scale)
    rev = proposal_log_density(-diff, snapshot.chols[a_y],
                               snapshot.log_dets[a_y], scale)
    return rev - fwd


def mixture_log_density(snapshot, beta, qf):
    """Log density at temperature beta of the registry's Laplace mixture
    at one point, from its (J,) quad forms."""
    return float(logsumexp(snapshot.log_weights
                           + gaussian_log_pdf_terms(snapshot, qf, beta)))


def run_level(run, k):
    """Level k of a run's ladder as a `hat.Level`."""
    return Level(run.target, run.betas[k], run.snapshot, run.radii[k])


def row_record(run, k):
    """Chain k's record, a view of row k of the run's block."""
    return ChainRecord((run.X[k], run.logpi[k], run.qf[k]))
