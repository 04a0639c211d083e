import numpy as np
import pytest

from alps import optimize
from alps.density import TargetDensity
from alps.optimize import local_optimize
from alps.targets.gaussian import GaussianTarget


def test_quadratic_exact():
    a = np.array([1.5, -2.0, 0.25])
    target = TargetDensity(3, lambda x: -0.5 * float((x - a) @ (x - a)))
    mu, converged = local_optimize(np.array([10.0, 10.0, -5.0]), target)
    assert converged
    np.testing.assert_allclose(mu, a, atol=1e-8)


def test_quadratic_with_analytic_gradient(monkeypatch):
    a = np.array([0.3, 0.7])
    target = GaussianTarget(a, np.diag([2.0, 0.5]))
    x0 = np.array([-4.0, 6.0])
    # Sigma^{-1} (a - x0), to rounding: a finite-difference fallback
    # would be off by far more
    np.testing.assert_allclose(target.gradient(x0),
                               [(0.3 + 4.0) / 2.0, (0.7 - 6.0) / 0.5],
                               rtol=1e-13)
    monkeypatch.setattr(optimize, "GRADIENT_TOLERANCE", 1e-10)
    mu, converged = local_optimize(x0, target)
    assert converged
    np.testing.assert_allclose(mu, a, atol=1e-8)


def test_stationary_start_returns_immediately():
    a = np.zeros(2)
    target = GaussianTarget(a, np.eye(2))
    mu, converged = local_optimize(a, target)
    assert converged
    np.testing.assert_allclose(mu, a, atol=1e-12)


def test_rosenbrock_shaped_log_density(monkeypatch):
    def logp(x):
        return -((1.0 - x[0]) ** 2) - 100.0 * (x[1] - x[0] ** 2) ** 2

    target = TargetDensity(2, logp)
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", 2000)
    monkeypatch.setattr(optimize, "GRADIENT_TOLERANCE", 1e-8)
    mu, converged = local_optimize(np.array([-1.2, 1.0]), target)
    assert converged
    np.testing.assert_allclose(mu, [1.0, 1.0], atol=1e-6)


def test_budget_exhaustion_reports_not_converged(monkeypatch):
    def logp(x):
        return -((1.0 - x[0]) ** 2) - 100.0 * (x[1] - x[0] ** 2) ** 2

    target = TargetDensity(2, logp)
    monkeypatch.setattr(optimize, "MAX_ITERATIONS", 3)
    mu, converged = local_optimize(np.array([-1.2, 1.0]), target)
    assert not converged
    assert np.all(np.isfinite(mu))


def test_nonfinite_start_raises():
    target = TargetDensity(1, lambda x: -np.inf if x[0] < 0 else -x[0] ** 2)
    with pytest.raises(ValueError, match="not finite"):
        local_optimize(np.array([-1.0]), target)
