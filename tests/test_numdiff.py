import numpy as np

from alps.numdiff import (central_gradient, central_hessian,
                          richardson_second_derivative)
from alps.targets.skewnormal import (skew_log_pdf, skew_log_pdf_d2,
                                     skew_log_pdf_d3)
from numdiff_reference import richardson_third_derivative


def test_central_gradient_quadratic():
    a = np.array([0.5, -1.0, 2.0])

    def f(x):
        return -0.5 * float((x - a) @ (x - a))

    x = np.array([1.0, 1.0, 1.0])
    np.testing.assert_allclose(central_gradient(f, x), a - x, atol=1e-7)


def test_central_hessian_standard_gaussian():
    def f(x):
        return -0.5 * float(x @ x)

    h = central_hessian(f, np.zeros(3))
    np.testing.assert_allclose(h, -np.eye(3), atol=1e-5)


def test_central_hessian_diagonal_quadratic():
    a = np.diag([2.0, 0.5])

    def f(x):
        return -0.5 * float(x @ a @ x)

    h = central_hessian(f, np.array([0.3, -0.2]))
    np.testing.assert_allclose(h, -a, atol=1e-5)


def test_central_hessian_cross_terms():
    p = np.array([[2.0, 0.7], [0.7, 1.5]])

    def f(x):
        return -0.5 * float(x @ p @ x)

    h = central_hessian(f, np.array([0.1, 0.4]))
    np.testing.assert_allclose(h, -p, atol=1e-5)


def test_richardson_derivatives_on_sin():
    x = 0.3
    d2 = richardson_second_derivative(np.sin, x)
    d3 = richardson_third_derivative(np.sin, x)
    assert abs(d2 - (-np.sin(x))) < 1e-8
    assert abs(d3 - (-np.cos(x))) < 1e-6


def test_richardson_matches_skew_normal_analytic():
    # the skew-normal log-pdf has closed-form derivatives to check against
    alpha = 2.0
    for z in (-0.5, 0.0, 0.8):
        f = lambda t: float(skew_log_pdf(t, alpha))
        d2 = richardson_second_derivative(f, z, h0=0.05)
        d3 = richardson_third_derivative(f, z, h0=0.05)
        assert abs(d2 - skew_log_pdf_d2(z, alpha)) < 1e-4 * max(
            1.0, abs(skew_log_pdf_d2(z, alpha)))
        assert abs(d3 - skew_log_pdf_d3(z, alpha)) < 1e-4 * max(
            1.0, abs(skew_log_pdf_d3(z, alpha)))
