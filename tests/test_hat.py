import numpy as np
import pytest
from scipy.stats import chi2, multivariate_normal, norm

from alps.config import TruncationSettings
from alps.hat import (Level, allocate_mode, chi2_quantile,
                      gaussian_log_pdf_terms)
from alps.registry import (ModeRegistry, RegistrySnapshot, make_mode_info,
                           try_insert)
from alps.targets.gaussian import GaussianMixtureTarget, GaussianTarget


def registry_snapshot(mus, sigmas, log_pis, dim):
    reg = ModeRegistry(dim=dim, tol=1e-12)
    for mu, sigma, lp in zip(mus, sigmas, log_pis):
        reg, inserted = try_insert(reg, make_mode_info(
            np.asarray(mu, dtype=float), np.asarray(sigma, dtype=float), lp))
        assert inserted
    return reg.snapshot()


def empty_snapshot(dim):
    return RegistrySnapshot(version=0, dim=dim, tol=2.0,
                            mus=np.zeros((0, dim)),
                            chols=np.zeros((0, dim, dim)),
                            log_dets=np.zeros(0), log_weights=np.zeros(0),
                            log_pi_at_modes=np.zeros(0))


def test_allocate_single_mode_always_zero():
    snap = registry_snapshot([[0.0, 0.0]], [np.eye(2)], [0.0], 2)
    rng = np.random.default_rng(0)
    for beta in (1.0, 4.0, 100.0):
        for _ in range(5):
            assert allocate_mode(rng.standard_normal(2) * 5, beta, snap) == 0


def test_allocate_symmetric_pair_nearest():
    snap = registry_snapshot([[-1.0, 0.0], [1.0, 0.0]],
                             [np.eye(2), np.eye(2)], [0.0, 0.0], 2)
    assert allocate_mode(np.array([-1.0, 0.0]), 1.0, snap) == 0
    assert allocate_mode(np.array([1.0, 0.0]), 1.0, snap) == 1


def test_allocate_1d_unequal_scales():
    # heights chosen so the computed weights come out (0.5, 0.5); then
    # log phi(2.5 | 0, 4) = -2.40 vs log phi(2.5 | 4, 1) = -2.04: mode 1 wins
    snap = registry_snapshot([[0.0], [4.0]], [[[4.0]], [[1.0]]],
                             [-np.log(2.0), 0.0], 1)
    np.testing.assert_allclose(np.exp(snap.log_weights), [0.5, 0.5],
                               atol=1e-14)
    s0 = norm.logpdf(2.5, 0.0, 2.0)
    s1 = norm.logpdf(2.5, 4.0, 1.0)
    assert s0 < s1
    assert abs(s0 - (-2.40)) < 0.01 and abs(s1 - (-2.04)) < 0.01
    assert allocate_mode(np.array([2.5]), 1.0, snap) == 1


def test_allocate_empty_registry_raises():
    with pytest.raises(ValueError, match="no modes discovered"):
        allocate_mode(np.zeros(2), 1.0, empty_snapshot(2))


def mixture_base_1d():
    base = GaussianMixtureTarget(weights=[0.5, 0.5], mus=[[0.0], [1.0]],
                                 sigmas=[[[4.0]], [[0.01]]])
    snap = registry_snapshot(
        [[0.0], [1.0]], [[[4.0]], [[0.01]]],
        [base.log_density(np.array([0.0])), base.log_density(np.array([1.0]))],
        1)
    return base, snap


def test_gaussian_log_pdf_terms_against_scipy():
    rng = np.random.default_rng(3)
    d = 5
    mus = rng.standard_normal((3, d)) * 4
    sigmas = []
    for _ in range(3):
        a = rng.standard_normal((d, d))
        sigmas.append(a @ a.T + d * np.eye(d))
    snap = registry_snapshot(mus, sigmas, [0.0, -1.0, -2.0], d)
    for beta in (1.0, 7.0):
        for _ in range(20):
            x = rng.standard_normal(d) * 3
            got = gaussian_log_pdf_terms(snap, snap.quad_forms(x), beta)
            expected = [multivariate_normal.logpdf(x, mu, sigma / beta)
                        for mu, sigma in zip(mus, sigmas)]
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)


def test_hat_beta_one_is_base_pointwise():
    base, snap = mixture_base_1d()
    hat = Level(base, 1.0, snap)
    rng = np.random.default_rng(1)
    for _ in range(100):
        x = rng.uniform(-8, 8, size=1)
        assert hat.log_density(x) == base.log_density(x)


def test_hat_mode_height_invariance_exact():
    base, snap = mixture_base_1d()
    for beta in (1.0, 4.0, 64.0, 4096.0):
        hat = Level(base, beta, snap)
        for j in range(snap.n_modes):
            mu = snap.mus[j]
            assert hat.log_density(mu) == base.log_density(mu)


def test_hat_same_allocation_branch_value():
    # standard 1-d Gaussian, one registered mode, beta=4, x=1:
    # 4 * logpdf(1) + (1 - 4) * logpdf(0) = -2 - log(2 pi)/2
    base = GaussianTarget(np.zeros(1), np.eye(1))
    snap = registry_snapshot([[0.0]], [np.eye(1)], [base.log_density([0.0])], 1)
    hat = Level(base, 4.0, snap)
    expected = -2.0 - 0.5 * np.log(2.0 * np.pi)
    assert abs(hat.log_density(np.array([1.0])) - expected) < 1e-12


def test_hat_allocation_flip_branch():
    # at x = 0.9 the wide mode owns the annealed allocation while the
    # narrow mode owns the beta = 1 allocation, forcing the G branch
    base, snap = mixture_base_1d()
    x = np.array([0.9])
    beta = 4096.0
    assert allocate_mode(x, 1.0, snap) == 1
    assert allocate_mode(x, beta, snap) == 0
    hat = Level(base, beta, snap)
    qf0 = (0.9 - 0.0) ** 2 / 4.0
    expected = snap.log_pi_at_modes[0] - 0.5 * beta * qf0
    assert abs(hat.log_density(x) - expected) < 1e-10


def test_hat_exact_gaussian_matches_scaled_gaussian():
    # with the true (mu, Sigma) registered, hat(. , beta) must equal the
    # N(mu, Sigma/beta) log-density up to one constant per beta
    rng = np.random.default_rng(2)
    mu = np.array([1.0, -0.5, 2.0])
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T + 3.0 * np.eye(3)
    base = GaussianTarget(mu, sigma)
    snap = registry_snapshot([mu], [sigma], [base.log_density(mu)], 3)
    for beta in (4.0, 64.0, 1024.0):
        hat = Level(base, beta, snap)
        points = mu + rng.standard_normal((100, 3)) @ np.linalg.cholesky(
            sigma / beta).T
        deltas = np.array([
            hat.log_density(x) - multivariate_normal.logpdf(x, mu, sigma / beta)
            for x in points])
        assert deltas.max() - deltas.min() < 1e-10


def test_truncated_hat_mode_point_passes():
    base, snap = mixture_base_1d()
    hat = Level(base, 16.0, snap)
    trunc = Level(base, 16.0, snap, radius=4.0)
    mu = snap.mus[0]
    assert trunc.log_density(mu) == hat.log_density(mu)


def test_truncated_hat_large_q_is_inner():
    base, snap = mixture_base_1d()
    hat = Level(base, 16.0, snap)
    trunc = Level(base, 16.0, snap, radius=1e12)
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.uniform(-10, 10, size=1)
        assert trunc.log_density(x) == hat.log_density(x)


def test_truncated_hat_outside_radius():
    # d=1, mode (0, 1), q=4, x=3: quadratic form 9 >= 4 -> -inf
    base = GaussianTarget(np.zeros(1), np.eye(1))
    snap = registry_snapshot([[0.0]], [np.eye(1)], [base.log_density([0.0])], 1)
    trunc = Level(base, 4.0, snap, radius=4.0)
    assert trunc.log_density(np.array([3.0])) == -np.inf


def test_truncated_never_exceeds_inner():
    base, snap = mixture_base_1d()
    hat = Level(base, 64.0, snap)
    trunc = Level(base, 64.0, snap, radius=2.5)
    rng = np.random.default_rng(4)
    for _ in range(200):
        x = rng.uniform(-6, 6, size=1)
        inner = hat.log_density(x)
        outer = trunc.log_density(x)
        assert outer <= inner
        if np.isfinite(outer):
            assert outer == inner


def test_chi2_quantile_against_scipy():
    for dim in (1, 2, 5, 20, 100):
        for level in (0.5, 0.9, 0.99, 0.9999):
            ours = chi2_quantile(level, dim)
            ref = chi2.ppf(level, dim)
            assert abs(ours - ref) < 1e-8 * max(1.0, ref)


def test_chi2_quantile_validates():
    with pytest.raises(ValueError):
        chi2_quantile(1.5, 3)
    with pytest.raises(ValueError):
        chi2_quantile(0.99, 0)


def test_default_truncation_radius():
    level = TruncationSettings().level
    assert level == 0.9999
    assert abs(chi2_quantile(level, 20) - chi2.ppf(0.9999, 20)) < 1e-6


def test_hat_rejects_bad_construction():
    base, snap = mixture_base_1d()
    with pytest.raises(ValueError):
        Level(base, 0.0, snap)
    with pytest.raises(ValueError):
        Level(base, 2.0, snap, radius=0.0)
    with pytest.raises(ValueError):
        Level(base, 2.0, snap, radius=np.nan)
    with pytest.raises(ValueError, match="no modes discovered"):
        Level(base, 2.0, empty_snapshot(1))
    with pytest.raises(ValueError, match="dimension"):
        Level(GaussianTarget(np.zeros(2), np.eye(2)), 2.0, snap)
    with pytest.raises(ValueError, match="needs a registry snapshot"):
        Level(base, 2.0, radius=4.0)


def test_level_without_snapshot_is_the_power():
    base, _ = mixture_base_1d()
    level = Level(base, 0.3)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.uniform(-6, 6, size=1)
        assert level.value_and_alloc(x) == (0.3 * base.log_density(x), 0)
