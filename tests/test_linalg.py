import numpy as np
import pytest
from scipy.special import logsumexp

from alps.linalg import (IndefiniteMatrixError, chol_lower, log_det_from_chol,
                         logsumexp_rows, spd_solve)


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


def test_logsumexp_rows_of_one_row_matches_scipy_and_handles_infinities():
    a = np.array([-18.38, -16004.5, -1268.4, -1268.4])
    assert abs(logsumexp_rows(a[None])[0] - logsumexp(a)) < 1e-12
    assert logsumexp_rows(np.full((1, 3), -np.inf))[0] == -np.inf
    assert logsumexp_rows(np.array([[-1.0, np.inf, 0.0]]))[0] == np.inf


def test_logsumexp_rows_is_scipy_logsumexp_of_each_row():
    rng = np.random.default_rng(3)
    a = np.concatenate([10.0 * rng.standard_normal((200, 4)),
                        [[-np.inf] * 4, [1.0, np.inf, 0.0, -np.inf],
                         [np.nan, 0.0, 1.0, 2.0], [-np.inf, -3.0, -np.inf, 2.0]]])
    got = logsumexp_rows(a)
    # scipy sums in another order; rows whose max is not finite take
    # that max exactly
    np.testing.assert_allclose(got[:200], logsumexp(a[:200], axis=1),
                               rtol=4e-16, atol=1e-15)
    assert np.array_equal(got[200:203], [-np.inf, np.inf, np.nan],
                          equal_nan=True)
    assert abs(got[203] - logsumexp(a[203])) < 1e-15
    # each row is computed from that row alone
    assert np.array_equal(got, [logsumexp_rows(row[None])[0] for row in a],
                          equal_nan=True)
