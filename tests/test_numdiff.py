import numpy as np
import pytest

from alps.numdiff import (central_gradient, central_hessian,
                          richardson_second_derivative)
from alps.targets import build_target
from alps.targets.skewnormal import (skew_log_pdf, skew_log_pdf_d2,
                                     skew_log_pdf_d3)
from numdiff_reference import (pointwise_gradient, pointwise_hessian,
                               richardson_third_derivative)


def quadratic(p, a=0.0):
    """The block function of -0.5 (x - a)^T p (x - a), row by row."""
    return lambda xs: -0.5 * np.einsum("li,ij,lj->l", xs - a, p, xs - a)


def test_central_gradient_quadratic():
    a = np.array([0.5, -1.0, 2.0])
    x = np.array([1.0, 1.0, 1.0])
    np.testing.assert_allclose(central_gradient(quadratic(np.eye(3), a), x),
                               a - x, atol=1e-7)


def test_central_hessian_standard_gaussian():
    h = central_hessian(quadratic(np.eye(3)), np.zeros(3))
    np.testing.assert_allclose(h, -np.eye(3), atol=1e-5)


def test_central_hessian_diagonal_quadratic():
    a = np.diag([2.0, 0.5])
    h = central_hessian(quadratic(a), np.array([0.3, -0.2]))
    np.testing.assert_allclose(h, -a, atol=1e-5)


def test_central_hessian_cross_terms():
    p = np.array([[2.0, 0.7], [0.7, 1.5]])
    h = central_hessian(quadratic(p), np.array([0.1, 0.4]))
    np.testing.assert_allclose(h, -p, atol=1e-5)


@pytest.mark.parametrize("name, params", [
    ("skew_normal_mixture_20d", {"dim": 4}),
    ("iid_product_skew", {"dim": 5, "alpha": 10.0}),
    ("sur_grunfeld", {}),
], ids=["skew-mixture", "iid-skew", "sur"])
def test_one_block_stencils_equal_the_point_by_point_differences(name,
                                                                 params):
    # the stencil points are built by the one-point arithmetic, and a
    # target's rows do not depend on each other, so each derivative is
    # one block call and equals the point-by-point one bit for bit
    target = build_target(name, params)
    blocks = []

    def block(xs):
        blocks.append(len(xs))
        return target.log_density_batch(xs)

    rng = np.random.default_rng(2)
    d = target.dim
    for x in rng.normal(0.0, 2.0, (3, d)):
        x[0] = -0.0  # a signed zero meets the one-point formula's additions
        assert np.array_equal(central_gradient(block, x),
                              pointwise_gradient(target.log_density, x))
        assert np.array_equal(central_hessian(block, x),
                              pointwise_hessian(target.log_density, x))
    assert blocks == [2 * d, 2 * d * d + 1] * 3


def test_central_hessian_rejects_non_finite_entries():
    def block(xs):
        return np.where(xs[:, 1] > 0.0, -np.inf, -0.5 * (xs * xs).sum(axis=1))

    with pytest.raises(ValueError, match="non-finite Hessian entries"):
        central_hessian(block, np.zeros(2))


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
