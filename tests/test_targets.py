import os

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import log_ndtr, logsumexp

from alps import numdiff
from alps.density import TargetDensity
from alps.targets import TARGET_PARAMS, build_target
from alps.linalg import LOG_2PI
from alps.targets.gaussian import GaussianMixtureTarget, GaussianTarget
from alps.targets.product import (GaussianShape, IidProductTarget, SkewShape,
                                  check_shape)
from alps.targets.skewnormal import (LOG_2, SkewNormalMixtureTarget,
                                     benchmark_target, skew_log_pdf,
                                     skew_log_pdf_d1,
                                     skew_log_pdf_d2, skew_log_pdf_d3,
                                     skew_normal_mode_offset)
from function_target import FunctionTarget
from numdiff_reference import richardson_third_derivative


def test_skew_log_pdf_matches_scipy():
    x = np.linspace(-6.0, 6.0, 121)
    for alpha in (0.0, 2.0, 10.0, -3.0):
        np.testing.assert_allclose(skew_log_pdf(x, alpha),
                                   stats.skewnorm.logpdf(x, alpha),
                                   rtol=1e-12, atol=1e-12)


def reference_skew_log_pdf(z, alpha):
    """skew_log_pdf as one expression."""
    z = np.asarray(z, dtype=float)
    return LOG_2 + -0.5 * (z * z + LOG_2PI) + log_ndtr(alpha * z)


def test_skew_log_pdf_matches_one_expression_reference():
    rng = np.random.default_rng(7)
    special = np.array([np.inf, -np.inf, np.nan, 0.0, -0.0])
    inputs = [0.3, -2.5, np.float64(1.7), np.inf, -np.inf, np.nan, special,
              rng.standard_normal(20), 3.0 * rng.standard_normal((40, 9))]
    huge = np.array([1e200, -1e200])
    for alpha in (2.0, 10.0, -3.0):
        for z in inputs:
            got = skew_log_pdf(z, alpha)
            want = reference_skew_log_pdf(z, alpha)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            assert np.array_equal(got, want, equal_nan=True)
        # z * z overflows to inf in both forms, with numpy's warning
        with pytest.warns(RuntimeWarning, match="overflow"):
            got = skew_log_pdf(huge, alpha)
        with pytest.warns(RuntimeWarning, match="overflow"):
            want = reference_skew_log_pdf(huge, alpha)
        assert np.array_equal(got, want, equal_nan=True)
        shape = SkewShape(alpha)
        peak = float(reference_skew_log_pdf(shape.m0, alpha))
        for z in inputs[6:]:
            want = reference_skew_log_pdf(z + shape.m0, alpha) - peak
            assert np.array_equal(shape(z), want, equal_nan=True)


def test_skew_log_pdf_integrates_to_one():
    val, err = quad(lambda t: np.exp(skew_log_pdf(t, 10.0)), -10.0, 10.0)
    assert abs(val - 1.0) < 1e-9


def test_skew_alpha_zero_is_standard_normal():
    x = np.linspace(-4.0, 4.0, 33)
    np.testing.assert_allclose(skew_log_pdf(x, 0.0), stats.norm.logpdf(x),
                               rtol=1e-13)


def test_skew_derivatives_match_finite_differences():
    for alpha in (2.0, 10.0):
        for z in (-1.0, -0.2, 0.4, 1.5):
            f = lambda t: float(skew_log_pdf(t, alpha))
            d1 = (f(z + 1e-6) - f(z - 1e-6)) / 2e-6
            assert abs(skew_log_pdf_d1(z, alpha) - d1) < 1e-7 * max(1, abs(d1))
            d2 = numdiff.richardson_second_derivative(f, z, h0=0.05)
            assert abs(skew_log_pdf_d2(z, alpha) - d2) < 1e-6 * abs(d2)
            d3 = richardson_third_derivative(f, z, h0=0.05)
            assert abs(skew_log_pdf_d3(z, alpha) - d3) < 1e-4 * max(1, abs(d3))


def test_mode_offset_is_a_stationary_point():
    for alpha in (1.0, 2.0, 10.0):
        m0 = skew_normal_mode_offset(alpha)
        assert abs(skew_log_pdf_d1(m0, alpha)) < 1e-10
        assert skew_log_pdf_d2(m0, alpha) < 0


def test_mixture_is_sum_of_coordinatewise_components():
    target = SkewNormalMixtureTarget(alpha=10.0,
                                     mus=[[1.0, -2.0], [3.0, 0.5]],
                                     omegas=[1.0, 2.0])
    x = np.array([0.3, -0.7])
    comp = [stats.skewnorm.logpdf(x, 10.0, loc=[1.0, -2.0]).sum(),
            stats.skewnorm.logpdf(x, 10.0, loc=[3.0, 0.5], scale=2.0).sum()]
    np.testing.assert_allclose(target.log_density(x), logsumexp(comp),
                               rtol=1e-12)


def test_mixture_gradient_and_hessian_match_finite_differences():
    target = benchmark_target(dim=4)
    rng = np.random.default_rng(0)
    for _ in range(3):
        x = target.component_locations[2] + rng.standard_normal(4)
        g = numdiff.central_gradient(target.log_density_batch, x)
        np.testing.assert_allclose(target.gradient(x), g, atol=1e-5)
        h = numdiff.central_hessian(target.log_density_batch, x)
        np.testing.assert_allclose(target.hessian(x), h, atol=1e-4)


def test_benchmark_layout():
    target = benchmark_target()
    assert target.dim == 20
    locs = target.component_locations
    np.testing.assert_array_equal(locs[0], np.full(20, 20.0))
    np.testing.assert_array_equal(locs[1], np.full(20, -20.0))
    np.testing.assert_array_equal(locs[2, :10], np.full(10, -10.0))
    np.testing.assert_array_equal(locs[2, 10:], np.full(10, 10.0))
    np.testing.assert_array_equal(locs[3], -locs[2])
    modes = target.component_modes()
    off = skew_normal_mode_offset(10.0)
    np.testing.assert_allclose(modes[0], locs[0] + off, rtol=1e-12)
    np.testing.assert_allclose(modes[2], locs[2] + 2.0 * off, rtol=1e-12)


def test_benchmark_mode_heights():
    # the wide components (scale 2 per coordinate) peak a factor 2^dim
    # below the narrow ones
    target = benchmark_target()
    modes = target.component_modes()
    h = [target.log_density(m) for m in modes]
    assert abs(h[0] - h[1]) < 1e-9
    assert abs(h[2] - h[3]) < 1e-9
    np.testing.assert_allclose(h[0] - h[2], 20.0 * np.log(2.0), atol=1e-9)


def test_benchmark_first_coordinate_mass_below_half():
    # equal component weights: the first-coordinate marginal is a mixture of
    # four 1-d skew-normals; mass below 1/2 is essentially exactly 1/2
    locs = [20.0, -20.0, -10.0, 10.0]
    scales = [1.0, 1.0, 2.0, 2.0]
    mass = np.mean([stats.skewnorm.cdf(0.5, 10.0, loc=m, scale=s)
                    for m, s in zip(locs, scales)])
    assert abs(mass - 0.5) < 1e-7
    assert abs(mass - 0.4999999619751974) < 1e-12


def test_mixture_validation():
    with pytest.raises(ValueError):
        SkewNormalMixtureTarget(1.0, mus=[1.0, 2.0], omegas=[1.0, 1.0])
    with pytest.raises(ValueError):
        SkewNormalMixtureTarget(1.0, mus=[[1.0], [2.0]], omegas=[1.0])
    with pytest.raises(ValueError):
        SkewNormalMixtureTarget(1.0, mus=[[1.0], [2.0]], omegas=[1.0, -1.0])


def test_gaussian_mixture_matches_scipy():
    w = [0.25, 0.75]
    mus = [np.zeros(2), np.array([3.0, -1.0])]
    sigmas = [np.eye(2), np.array([[2.0, 0.3], [0.3, 0.5]])]
    target = GaussianMixtureTarget(w, mus, sigmas)
    rng = np.random.default_rng(1)
    for _ in range(5):
        x = rng.standard_normal(2) * 3.0
        oracle = logsumexp([np.log(wk) + stats.multivariate_normal.logpdf(
            x, mean=m, cov=s) for wk, m, s in zip(w, mus, sigmas)])
        np.testing.assert_allclose(target.log_density(x), oracle, rtol=1e-12)
        g = numdiff.central_gradient(target.log_density_batch, x)
        np.testing.assert_allclose(target.gradient(x), g, atol=1e-5)


def test_gaussian_target_matches_scipy():
    mu = np.array([1.0, -2.0, 0.5])
    sigma = np.array([[2.0, 0.4, 0.0], [0.4, 1.0, 0.2], [0.0, 0.2, 0.7]])
    target = GaussianTarget(mu, sigma)
    x = np.array([0.2, 0.1, -1.0])
    np.testing.assert_allclose(
        target.log_density(x),
        stats.multivariate_normal.logpdf(x, mean=mu, cov=sigma), rtol=1e-12)


def test_check_shape_accepts_valid_shapes():
    check_shape(GaussianShape())
    check_shape(SkewShape(alpha=2.0))


def test_check_shape_rejects_bad_shapes():
    with pytest.raises(ValueError, match="h\\(0\\)"):
        check_shape(lambda x: np.asarray(x) * 0.0 + 1.0)
    with pytest.raises(ValueError, match="not maximized at 0"):
        check_shape(lambda x: -0.5 * (np.asarray(x) - 1.0) ** 2 + 0.5)
    with pytest.raises(ValueError, match="finite"):
        check_shape(lambda x: np.where(np.abs(x) > 4, np.inf, 0.0) * -1.0)


def test_iid_product_target_value_and_validation():
    shape = GaussianShape()
    target = IidProductTarget(shape, dim=3)
    x = np.array([1.0, -2.0, 0.5])
    assert target.log_density(x) == shape(x).sum()
    # the shape is checked; tempering is a ladder level's job, not the
    # product's
    with pytest.raises(ValueError, match="not maximized at 0"):
        IidProductTarget(lambda x: -0.5 * (np.asarray(x) - 1.0) ** 2 + 0.5,
                         dim=3)
    with pytest.raises(TypeError, match="beta"):
        IidProductTarget(shape, dim=3, beta=2.0)


def test_skew_shape_derivatives_match_analytic():
    shape = SkewShape(alpha=2.0)
    m0 = shape.m0
    assert abs(float(shape(np.array([0.0]))[0])) < 1e-14
    assert shape.h2() == float(skew_log_pdf_d2(m0, 2.0))
    assert shape.h3() == float(skew_log_pdf_d3(m0, 2.0))
    # and, independently of those formulas, differences of the shape
    f = lambda t: float(shape(np.array([t]))[0])
    assert abs(shape.h2() - numdiff.richardson_second_derivative(
        f, 0.0, h0=0.05)) < 1e-8
    assert abs(shape.h3() - richardson_third_derivative(
        f, 0.0, h0=0.05)) < 1e-6


def test_gaussian_shape_derivatives():
    shape = GaussianShape()
    assert shape.h2() == -1.0
    assert shape.h3() == 0.0


CSV = os.path.join(os.path.dirname(numdiff.__file__), "targets", "data",
                   "grunfeld.csv")
# (parameter block, dim) of one instance of each named target
TARGET_SPECS = {
    "gaussian": ({"mu": [1.0, 2.0], "sigma": np.eye(2).tolist()}, 2),
    "gaussian_mixture": ({"weights": [0.5, 0.5], "mus": [[0.0], [5.0]],
                          "sigmas": [[[1.0]], [[1.0]]]}, 1),
    "skew_normal_mixture_20d": ({"dim": 4, "alpha": 3.0}, 4),
    "sur_grunfeld": ({"first_years": 15}, 15),
    "sur_csv": ({"path": CSV, "first_years": 15}, 15),
    "iid_product_skew": ({"dim": 3, "alpha": 10.0}, 3),
}


def test_build_target_takes_each_targets_own_keys():
    assert set(TARGET_SPECS) == set(TARGET_PARAMS)
    for name, (params, dim) in TARGET_SPECS.items():
        assert set(params) == TARGET_PARAMS[name]
        assert build_target(name, params).dim == dim
    skew = build_target("iid_product_skew", {"dim": 2, "alpha": 10.0})
    assert skew.h.alpha == 10.0
    with pytest.raises(ValueError, match="alpah"):
        build_target("iid_product_skew", {"dim": 2, "alpah": 10.0})
    with pytest.raises(ValueError, match="unknown target"):
        build_target("gausian", {})


def special_rows(dim, rng):
    """Rows at 0, +-1e3, inf, nan and ordinary points, mixed per row."""
    rows = [np.zeros(dim), np.full(dim, 1e3), np.full(dim, -1e3),
            np.full(dim, np.inf), np.full(dim, -np.inf), np.full(dim, np.nan)]
    for value in (0.0, 1e3, -1e3, np.inf, -np.inf, np.nan):
        row = 3.0 * rng.standard_normal(dim)
        row[rng.integers(dim)] = value
        rows.append(row)
    rows.extend(20.0 * rng.standard_normal((6, dim)))
    return np.array(rows)


# the SUR residual cross-moments of a row with an infinite entry meet
# inf - inf; the target returns -inf or nan there, after numpy's warning
SUR_INF_WARNING = pytest.mark.filterwarnings(
    "ignore:invalid value encountered in matmul")


@pytest.mark.parametrize("target", [
    IidProductTarget(SkewShape(alpha=2.0), dim=20),
    IidProductTarget(SkewShape(alpha=10.0), dim=20),
    # the tests' row-by-row helper, on a Gaussian
    FunctionTarget(3, lambda x: -0.5 * float((x - 1.0) @ (x - 1.0))),
] + [pytest.param(build_target(name, params),
                  marks=SUR_INF_WARNING if name.startswith("sur") else ())
     for name, (params, _) in TARGET_SPECS.items()],
    ids=["iid-alpha2", "iid-alpha10", "gaussian-loop", *TARGET_SPECS])
def test_log_density_batch_equals_log_density_row_by_row(target):
    rng = np.random.default_rng(12)
    pool = special_rows(target.dim, rng)
    for size in (1, 3, 14):
        for _ in range(10):
            xs = pool[rng.integers(len(pool), size=size)]
            batch = target.log_density_batch(xs)
            rows = np.array([target.log_density(x) for x in xs])
            assert batch.shape == (size,)
            assert np.array_equal(batch, rows, equal_nan=True)


class ColumnBatch(TargetDensity):
    """Returns its batch as an (L, 1) column instead of (L,)."""

    def _log_density_block(self, xs):
        return np.zeros((len(xs), 1))


def test_log_density_batch_checks_shapes():
    target = ColumnBatch(2)
    with pytest.raises(ValueError, match="expected"):
        target.log_density_batch(np.zeros((3, 1)))
    with pytest.raises(ValueError, match=r"expected \(3,\)"):
        target.log_density_batch(np.zeros((3, 2)))
