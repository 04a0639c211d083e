import numpy as np
import pytest

from alps.registry import (IndefiniteHessianError, ModeRegistry,
                           approximate_log_weights, covariance_from_hessian,
                           default_tol, make_mode_info, pseudo_distance,
                           try_insert)


def approximate_weights(modes):
    return np.exp(approximate_log_weights(modes))


def mode_1d(mu, var, log_pi):
    return make_mode_info(np.array([float(mu)]), np.array([[float(var)]]),
                          log_pi)


def test_weights_symmetric_pair():
    m1 = make_mode_info(np.zeros(2), np.eye(2), -1.0)
    m2 = make_mode_info(np.ones(2), np.eye(2), -1.0)
    np.testing.assert_allclose(approximate_weights([m1, m2]), [0.5, 0.5],
                               atol=1e-14)


def test_weights_height_ratio():
    # pi(mu1) = 2 pi(mu2), equal covariances -> (2/3, 1/3)
    m1 = mode_1d(0.0, 1.0, np.log(2.0))
    m2 = mode_1d(5.0, 1.0, 0.0)
    np.testing.assert_allclose(approximate_weights([m1, m2]),
                               [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_weights_volume_ratio():
    # equal heights, |Sigma_1|^{1/2} = 2 -> (2/3, 1/3)
    m1 = mode_1d(0.0, 4.0, -1.0)
    m2 = mode_1d(5.0, 1.0, -1.0)
    np.testing.assert_allclose(approximate_weights([m1, m2]),
                               [2.0 / 3.0, 1.0 / 3.0], atol=1e-14)


def test_weights_permutation_equivariant():
    rng = np.random.default_rng(0)
    modes = [make_mode_info(rng.standard_normal(3),
                            np.diag(rng.uniform(0.5, 2.0, 3)),
                            rng.standard_normal())
             for _ in range(4)]
    w = approximate_weights(modes)
    perm = [2, 0, 3, 1]
    w_perm = approximate_weights([modes[i] for i in perm])
    np.testing.assert_allclose(w_perm, w[perm], atol=1e-14)


def test_weights_invariant_to_common_height_shift():
    # scaling every pi(mu_j) by c shifts all log heights equally
    m1 = mode_1d(0.0, 1.0, -3.0)
    m2 = mode_1d(5.0, 2.0, -1.0)
    w = approximate_weights([m1, m2])
    shifted = [mode_1d(0.0, 1.0, -3.0 + 100.0), mode_1d(5.0, 2.0, -1.0 + 100.0)]
    np.testing.assert_allclose(approximate_weights(shifted), w, atol=1e-12)


def test_weights_empty_list_raises():
    with pytest.raises(ValueError, match="no modes"):
        approximate_weights([])


def test_covariance_from_hessian_identity():
    # sigma alone; its mode's factor and log-determinant come from
    # make_mode_info's one factorization
    sigma = covariance_from_hessian(-np.eye(3))
    np.testing.assert_allclose(sigma, np.eye(3), atol=1e-12)
    mode = make_mode_info(np.zeros(3), sigma, 0.0)
    np.testing.assert_allclose(mode.sigma_chol, np.eye(3), atol=1e-12)
    assert abs(mode.log_det_sigma) < 1e-12


def test_covariance_from_hessian_diagonal():
    sigma = covariance_from_hessian(np.diag([-2.0, -0.5]))
    np.testing.assert_allclose(sigma, np.diag([0.5, 2.0]), atol=1e-12)
    assert abs(make_mode_info(np.zeros(2), sigma, 0.0).log_det_sigma) < 1e-12


def test_covariance_from_hessian_indefinite():
    with pytest.raises(IndefiniteHessianError, match="not a local maximum"):
        covariance_from_hessian(np.eye(2))


def test_pseudo_distance_zero_for_identical():
    m = mode_1d(0.0, 1.0, 0.0)
    assert pseudo_distance(m, m) == 0.0


def test_pseudo_distance_unit_case():
    a = mode_1d(0.0, 1.0, 0.0)
    b = mode_1d(1.0, 1.0, 0.0)
    assert abs(pseudo_distance(a, b) - 1.0) < 1e-14


def test_pseudo_distance_max_of_two():
    a = mode_1d(0.0, 4.0, 0.0)
    b = mode_1d(2.0, 1.0, 0.0)
    # quadratic forms 4/4 = 1 and 4/1 = 4; max is 4
    assert abs(pseudo_distance(a, b) - 4.0) < 1e-14


def test_pseudo_distance_symmetric():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = make_mode_info(rng.standard_normal(2),
                           np.diag(rng.uniform(0.5, 3.0, 2)),
                           0.0)
        b = make_mode_info(rng.standard_normal(2),
                           np.diag(rng.uniform(0.5, 3.0, 2)),
                           0.0)
        assert pseudo_distance(a, b) == pseudo_distance(b, a)


def test_pseudo_distance_dimension_mismatch():
    a = mode_1d(0.0, 1.0, 0.0)
    b = make_mode_info(np.zeros(2), np.eye(2), 0.0)
    with pytest.raises(ValueError, match="dimension mismatch"):
        pseudo_distance(a, b)


def test_default_tol():
    assert abs(default_tol(1) - (1.0 + np.sqrt(2.0))) < 1e-14
    assert abs(default_tol(2) - 2.0) < 1e-14


def test_try_insert_empty_registry():
    reg = ModeRegistry(dim=1)
    reg, inserted = try_insert(reg, mode_1d(0.0, 1.0, 0.0))
    assert inserted and reg.n_modes == 1 and reg.version == 1


def test_try_insert_duplicate_rejected():
    reg = ModeRegistry(dim=1)
    reg, _ = try_insert(reg, mode_1d(0.0, 1.0, 0.0))
    reg, inserted = try_insert(reg, mode_1d(0.0, 1.0, 0.0))
    assert not inserted and reg.n_modes == 1 and reg.version == 1


def test_try_insert_clears_tolerance():
    # d=1: tol = 1 + sqrt(2); candidate at pseudo-distance 4 goes in
    reg = ModeRegistry(dim=1)
    reg, _ = try_insert(reg, mode_1d(0.0, 1.0, 0.0))
    assert abs(reg.tol - 2.414213562373095) < 1e-12
    reg, inserted = try_insert(reg, mode_1d(2.0, 1.0, 0.0))
    assert inserted and reg.n_modes == 2


def test_pairwise_distances_exceed_tol_after_inserts():
    rng = np.random.default_rng(2)
    reg = ModeRegistry(dim=2)
    for _ in range(40):
        cand = make_mode_info(rng.uniform(-10, 10, 2), np.eye(2),
                              rng.standard_normal())
        reg, _ = try_insert(reg, cand)
    assert reg.n_modes >= 2
    for i in range(reg.n_modes):
        for j in range(i + 1, reg.n_modes):
            assert pseudo_distance(reg.modes[i], reg.modes[j]) > reg.tol


def test_snapshot_versioning_and_immutability():
    reg = ModeRegistry(dim=1)
    reg, _ = try_insert(reg, mode_1d(0.0, 1.0, 0.0))
    snap1 = reg.snapshot()
    reg, _ = try_insert(reg, mode_1d(10.0, 1.0, 0.0))
    snap2 = reg.snapshot()
    assert snap1.version == 1 and snap2.version == 2
    assert snap1.n_modes == 1 and snap2.n_modes == 2


def test_snapshot_empty_registry_raises():
    reg = ModeRegistry(dim=1)
    with pytest.raises(ValueError, match="no modes discovered"):
        reg.snapshot()


def test_json_round_trip():
    reg = ModeRegistry(dim=2)
    reg, _ = try_insert(reg, make_mode_info(np.array([0.0, 1.0]),
                                            np.array([[2.0, 0.3], [0.3, 1.0]]),
                                            -4.5))
    reg, _ = try_insert(reg, make_mode_info(np.array([8.0, -3.0]),
                                            np.eye(2), -2.0))
    back = ModeRegistry.from_json(reg.to_json())
    assert back.version == reg.version and back.n_modes == reg.n_modes
    np.testing.assert_allclose(back.log_weights, reg.log_weights, atol=1e-12)
    np.testing.assert_allclose(back.modes[0].sigma, reg.modes[0].sigma,
                               atol=1e-12)


def test_make_mode_info_validates_sigma():
    with pytest.raises(ValueError, match="shape"):
        make_mode_info(np.zeros(2), np.eye(3), 0.0)
    with pytest.raises(ValueError, match="symmetric"):
        make_mode_info(np.zeros(2), np.array([[1.0, 0.5], [0.0, 1.0]]), 0.0)
