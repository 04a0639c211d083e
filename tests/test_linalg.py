import numpy as np
import pytest
from scipy.special import logsumexp

from alps.linalg import (IndefiniteMatrixError, chol_lower, log_det_from_chol,
                         logsumexp_1d, spd_solve)


def random_spd(rng, d):
    a = rng.standard_normal((d, d))
    return a @ a.T + d * np.eye(d)


def test_chol_lower_matches_numpy():
    rng = np.random.default_rng(0)
    for d in (1, 2, 5, 10):
        a = random_spd(rng, d)
        np.testing.assert_allclose(chol_lower(a), np.linalg.cholesky(a),
                                   rtol=1e-12, atol=1e-12)


def test_chol_lower_indefinite_raises_with_pivot():
    with pytest.raises(IndefiniteMatrixError) as exc:
        chol_lower(np.array([[1.0, 0.0], [0.0, -1.0]]))
    assert exc.value.pivot == 1


def test_log_det_from_chol():
    rng = np.random.default_rng(1)
    a = random_spd(rng, 4)
    chol = chol_lower(a)
    _, expected = np.linalg.slogdet(a)
    assert abs(log_det_from_chol(chol) - expected) < 1e-10


def test_spd_solve():
    rng = np.random.default_rng(5)
    a = random_spd(rng, 7)
    b = rng.standard_normal(7)
    np.testing.assert_allclose(spd_solve(chol_lower(a), b),
                               np.linalg.solve(a, b), rtol=1e-9, atol=1e-9)


def test_logsumexp_1d_matches_scipy_and_handles_infinities():
    a = np.array([-18.38, -16004.5, -1268.4, -1268.4])
    assert abs(logsumexp_1d(a) - logsumexp(a)) < 1e-12
    assert logsumexp_1d(np.full(3, -np.inf)) == -np.inf
    assert logsumexp_1d(np.array([-1.0, np.inf, 0.0])) == np.inf
