import numpy as np
import pytest

from alps import exploration
from alps.exploration import hessian_at, hot_step, mfind
from alps.hat import Level
from alps.kernels import rwm_core
from alps.numdiff import richardson_second_derivative
from alps.registry import ModeRegistry, make_mode_info, try_insert
from alps.targets.gaussian import GaussianMixtureTarget, GaussianTarget
from alps.targets.skewnormal import (benchmark_target, skew_log_pdf,
                                     skew_normal_mode_offset)
from function_target import FunctionTarget


class StubRng:
    def __init__(self, normals=0.0, uniforms=0.5):
        self.normals = normals
        self.uniforms = uniforms

    def standard_normal(self, size):
        return np.full(size, self.normals)

    def random(self):
        return self.uniforms


def test_hot_step_zero_displacement_accepts():
    base = GaussianTarget(np.zeros(2), np.eye(2))
    x_new, accepted = hot_step(np.array([1.0, 1.0]), 0.5, base, StubRng())
    assert accepted
    np.testing.assert_array_equal(x_new, [1.0, 1.0])


def test_hot_step_tiny_beta_accepts_everything():
    # a very hot chain flattens the landscape: tempered log-density
    # differences are O(beta * step^2) and every proposal is accepted
    base = GaussianTarget(np.zeros(1), np.eye(1))
    rng = np.random.default_rng(0)
    x = np.array([0.0])
    accepts = 0
    for _ in range(200):
        x, acc = hot_step(x, 1e-9, base, rng, step_scale=50.0)
        accepts += acc
    assert accepts == 200


def test_hot_step_validates_beta():
    base = GaussianTarget(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError):
        hot_step(np.zeros(1), 1.5, base, np.random.default_rng(0))


def test_hessian_at_standard_gaussian():
    target = FunctionTarget(3, lambda x: -0.5 * float(x @ x))
    np.testing.assert_allclose(hessian_at(target, np.zeros(3)), -np.eye(3),
                               atol=1e-5)


def test_hessian_at_diagonal_quadratic():
    a = np.diag([2.0, 0.5])
    target = FunctionTarget(2, lambda x: -0.5 * float(x @ a @ x))
    np.testing.assert_allclose(hessian_at(target, np.zeros(2)), -a, atol=1e-5)


def test_hessian_at_skew_normal_mode_matches_richardson():
    alpha = 4.0
    mode = skew_normal_mode_offset(alpha)
    target = FunctionTarget(1, lambda x: float(skew_log_pdf(x[0], alpha)))
    h = hessian_at(target, np.array([mode]))[0, 0]
    oracle = richardson_second_derivative(
        lambda t: float(skew_log_pdf(t, alpha)), mode, h0=0.05)
    assert abs(h - oracle) < 1e-4 * abs(oracle)


def test_hessian_at_rejects_nonfinite():
    # finite region narrower than the finite-difference probe step
    target = FunctionTarget(1, lambda x: -np.inf if abs(x[0]) > 1e-5
                            else -x[0] ** 2)
    with pytest.raises(ValueError, match="non-finite"):
        hessian_at(target, np.zeros(1))


def test_mfind_unimodal_gaussian_registers_truth():
    mu_true = np.array([2.0, -1.0])
    sigma_true = np.array([[1.5, 0.4], [0.4, 0.8]])
    base = GaussianTarget(mu_true, sigma_true)
    registry = ModeRegistry(dim=2)
    mu, registry, found = mfind(np.array([5.0, 5.0]), registry, base)
    assert found and registry.n_modes == 1
    np.testing.assert_allclose(mu, mu_true, atol=1e-6)
    np.testing.assert_allclose(registry.modes[0].mu, mu_true, atol=1e-6)
    np.testing.assert_allclose(registry.modes[0].sigma, sigma_true, atol=1e-5)


def test_mfind_known_mode_not_reinserted():
    base = GaussianTarget(np.zeros(2), np.eye(2))
    registry = ModeRegistry(dim=2)
    registry, _ = try_insert(registry, make_mode_info(
        np.zeros(2), np.eye(2), base.log_density(np.zeros(2))))
    version = registry.version
    _, registry, found = mfind(np.array([1.0, 1.0]), registry, base)
    assert not found
    assert registry.n_modes == 1 and registry.version == version


def test_mfind_append_only_and_version_tracks_insertions():
    base = GaussianMixtureTarget([0.5, 0.5], [[0.0], [6.0]],
                                 [np.eye(1), np.eye(1)])
    registry = ModeRegistry(dim=1)
    found_any = []
    for start in (-2.0, 0.5, 7.0, 5.5, -1.0):
        before = [m.mu.copy() for m in registry.modes]
        _, registry, found = mfind(np.array([start]), registry, base)
        found_any.append(found)
        for old, kept in zip(before, registry.modes):
            np.testing.assert_array_equal(old, kept.mu)
        assert registry.version == registry.n_modes
    assert found_any == [True, False, True, False, False]


def test_mfind_log_callback_fields():
    base = GaussianTarget(np.zeros(1), np.eye(1))
    registry = ModeRegistry(dim=1)
    records = []
    mfind(np.zeros(1), registry, base, log_cb=records.append)
    assert len(records) == 1
    assert set(records[0]) == {"found_new", "log_pi_at_mode",
                               "min_pseudo_distance", "status"}
    assert records[0]["found_new"] is True
    assert records[0]["status"] == "inserted"


def test_mfind_rejects_a_covariance_that_does_not_factor(monkeypatch):
    # a Sigma that does not factor fails in make_mode_info, its one
    # factorization, and the search logs the candidate as rejected
    base = GaussianTarget(np.zeros(2), np.eye(2))
    monkeypatch.setattr(exploration, "covariance_from_hessian",
                        lambda hess: np.diag([1.0, -1.0]))
    records = []
    _, registry, found = mfind(np.zeros(2), ModeRegistry(dim=2), base,
                               log_cb=records.append)
    assert not found and registry.n_modes == 0
    assert records[0]["status"] == "rejected"
    assert "failing pivot index 1" in records[0]["reason"]


def test_benchmark_hot_chain_finds_all_modes():
    # the hot chain sweeps every basin quickly at the benchmark settings:
    # over 10 seeds, at least 9 register all four modes within the first
    # 4000 hot-chain iterations.  The chain moves as the runner moves it
    # (v + 1 RWM steps carrying its record), then searches.
    target = benchmark_target()
    hot = Level(target, 5e-6)
    v, step_scale = 5, 120.0
    max_calls = 4000 // (v + 1)
    successes = 0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        registry = ModeRegistry(dim=20)
        rec = hot.record(np.full(20, 20.0))
        logp = hot.value(rec)[0]
        for _ in range(max_calls):
            for _ in range(v + 1):
                rec, logp, _ = rwm_core(rec, logp, hot, step_scale, rng)
            _, registry, _ = mfind(rec.x, registry, target)
            if registry.n_modes == 4:
                successes += 1
                break
        assert registry.n_modes <= 4
    assert successes >= 9
