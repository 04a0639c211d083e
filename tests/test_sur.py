import json

import numpy as np
import pytest
from scipy.linalg import block_diag

from alps import numdiff
from alps.cli import main
from alps.config import RunConfig, deep_merge, preset_dict
from alps.hat import chi2_quantile
from alps.optimize import local_optimize
from alps.runner import alps_run
from alps.targets import build_target
from alps.targets.sur import (SurParseError, SurProfileTarget,
                              UnidentifiableSystemError, load_grunfeld,
                              load_sur_csv, make_sur_data, ols_theta,
                              sur_gls_theta, sur_profile_loglik,
                              sur_sigma_hat, zellner_iterate)


def random_system(m=3, n=25, j=3, seed=0, noise=1.0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((m, n, j))
    theta = rng.standard_normal((m, j))
    mix = rng.standard_normal((m, m)) * 0.3 + np.eye(m)
    eps = np.einsum("lm,mn->ln", mix, rng.standard_normal((m, n))) * noise
    y = np.einsum("mnj,mj->mn", x, theta) + eps
    return make_sur_data(y, x), theta.reshape(-1)


def test_sigma_hat_zero_for_noiseless_data():
    data, theta = random_system(noise=0.0)
    np.testing.assert_allclose(sur_sigma_hat(theta, data),
                               np.zeros((3, 3)), atol=1e-20)


def test_sigma_hat_single_equation_is_mean_squared_residual():
    data, theta = random_system(m=1, seed=1)
    r = data.Y[0] - data.X[0] @ theta
    np.testing.assert_allclose(sur_sigma_hat(theta, data)[0, 0],
                               np.mean(r ** 2), rtol=1e-12)


def test_ols_recovers_noiseless_coefficients():
    data, theta = random_system(noise=0.0, seed=2)
    np.testing.assert_allclose(ols_theta(data), theta, atol=1e-10)


def test_gls_identity_sigma_reduces_to_ols():
    data, _ = random_system(seed=3)
    np.testing.assert_allclose(sur_gls_theta(np.eye(3), data),
                               ols_theta(data), rtol=1e-10)


def test_gls_single_equation_ignores_sigma():
    data, _ = random_system(m=1, seed=4)
    a = sur_gls_theta(np.array([[1.0]]), data)
    b = sur_gls_theta(np.array([[7.3]]), data)
    np.testing.assert_allclose(a, ols_theta(data), rtol=1e-10)
    np.testing.assert_allclose(a, b, rtol=1e-12)


def test_gls_matches_dense_kronecker_solve():
    data, _ = random_system(seed=5)
    rng = np.random.default_rng(6)
    w = rng.standard_normal((3, 3))
    sigma = w @ w.T + 3.0 * np.eye(3)
    # stacked GLS with the full MN x MN weight, equation-major order
    big_x = block_diag(*data.X)
    weight = np.kron(np.linalg.inv(sigma), np.eye(data.N))
    dense = np.linalg.solve(big_x.T @ weight @ big_x,
                            big_x.T @ weight @ data.y)
    np.testing.assert_allclose(sur_gls_theta(sigma, data), dense, rtol=1e-8)


def test_profile_loglik_value_and_scaling():
    data, theta = random_system(seed=7)
    sigma = sur_sigma_hat(theta, data)
    sign, logdet = np.linalg.slogdet(sigma)
    assert sign > 0
    expected = -data.N * np.log(2 * np.pi) - 0.5 * data.N * logdet - data.N
    np.testing.assert_allclose(sur_profile_loglik(theta, data), expected,
                               rtol=1e-12)
    # doubling every residual adds M log 2 to log det sigma_hat
    c = 2.0
    scaled = make_sur_data(c * data.Y, data.X)
    np.testing.assert_allclose(
        sur_profile_loglik(c * np.asarray(theta), scaled),
        sur_profile_loglik(theta, data) - data.N * data.M * np.log(c),
        rtol=1e-12)


def test_profile_loglik_equation_permutation_invariance():
    data, theta = random_system(seed=8)
    perm = [2, 0, 1]
    pdata = make_sur_data(data.Y[perm], data.X[perm])
    ptheta = np.asarray(theta).reshape(3, -1)[perm].reshape(-1)
    np.testing.assert_allclose(sur_profile_loglik(ptheta, pdata),
                               sur_profile_loglik(theta, data), rtol=1e-12)


def test_profile_loglik_degenerate_residuals_is_minus_inf():
    data, theta = random_system(noise=0.0, seed=9)
    assert sur_profile_loglik(theta, data) == -np.inf


def test_profile_target_gradient():
    data, _ = random_system(seed=10)
    target = SurProfileTarget(data)
    rng = np.random.default_rng(11)
    theta = ols_theta(data) + 0.05 * rng.standard_normal(data.dim)
    g = numdiff.central_gradient(target.log_density_batch, theta)
    np.testing.assert_allclose(target.gradient(theta), g, atol=1e-5)


def test_zellner_single_equation_converges_immediately():
    data, _ = random_system(m=1, seed=12)
    result = zellner_iterate(data)
    assert result.converged and result.iterations == 1
    np.testing.assert_allclose(result.theta, ols_theta(data), rtol=1e-10)


def test_zellner_noiseless_stops_at_exact_fit():
    data, theta = random_system(noise=0.0, seed=13)
    result = zellner_iterate(data)
    assert result.converged and result.iterations <= 2
    np.testing.assert_allclose(result.theta, theta, atol=1e-8)


def test_zellner_fixed_point_is_stationary():
    data, _ = random_system(seed=14)
    result = zellner_iterate(data, tol=1e-12)
    assert result.converged
    # at the fixed point the profile gradient vanishes
    target = SurProfileTarget(data)
    assert np.max(np.abs(target.gradient(result.theta))) < 1e-6
    # and the trajectory is monotone nondecreasing
    traj = np.array(result.trajectory)
    assert np.all(np.diff(traj) > -1e-8)


def test_zellner_validation():
    data, _ = random_system(seed=15)
    with pytest.raises(ValueError):
        zellner_iterate(data, tol=0.0)


CSV_SMALL = """firm,year,invest,value,capital
a,1950,1.0,2.0,3.0
a,1951,1.5,2.5,3.5
b,1950,4.0,5.0,6.0
b,1951,4.5,5.5,6.5
"""


def test_load_sur_csv_small_panel(tmp_path):
    p = tmp_path / "panel.csv"
    p.write_text(CSV_SMALL)
    data = load_sur_csv(p)
    assert (data.M, data.N, data.J) == (2, 2, 3)
    assert data.firms == ("a", "b")
    np.testing.assert_array_equal(data.Y, [[1.0, 1.5], [4.0, 4.5]])
    np.testing.assert_array_equal(data.X[0, 0], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(data.X[1, 1], [1.0, 5.5, 6.5])
    first = load_sur_csv(p, first_years=1)
    assert first.N == 1
    np.testing.assert_array_equal(first.Y, [[1.0], [4.0]])


def test_load_sur_csv_errors(tmp_path, capsys):
    p = tmp_path / "bad.csv"
    p.write_text("firm,year,invest,value\nx,1950,1,2\n")
    with pytest.raises(SurParseError, match="missing column"):
        load_sur_csv(p)
    p.write_text(CSV_SMALL + "b,1951,9,9,9\n")
    with pytest.raises(SurParseError, match="duplicate"):
        load_sur_csv(p)
    p.write_text(CSV_SMALL + "b,1952,9,9,9\n")
    with pytest.raises(SurParseError, match="ragged"):
        load_sur_csv(p)
    p.write_text("firm,year,invest,value,capital\nx,1950,oops,2,3\n")
    with pytest.raises(SurParseError, match="non-numeric"):
        load_sur_csv(p)
    p.write_text("firm,year,invest,value,capital\n")
    with pytest.raises(SurParseError, match="no data"):
        load_sur_csv(p)
    # a nan or inf cell used to reach LAPACK, which printed "On entry to
    # DLASCL parameter number 4 had an illegal value" before the fit
    # failed with "SVD did not converge"
    for cell in ("nan", "inf", "-Infinity"):
        p.write_text(CSV_SMALL.replace("b,1951,4.5,", f"b,1951,{cell},"))
        with pytest.raises(SurParseError, match="^row 5: non-finite cell"):
            load_sur_csv(p)
    # a Latin-1 byte used to end in a bare UnicodeDecodeError, exit 1
    p.write_bytes(CSV_SMALL.replace("b,1950", "\xe9,1950").encode("latin-1"))
    with pytest.raises(SurParseError, match="^row 4: not UTF-8 text"):
        load_sur_csv(p)
    assert main(["sur-fit", "--csv", str(p)]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: cannot load panel data: row 4: not UTF-8 text")


def test_load_grunfeld_shape():
    data = load_grunfeld()
    assert (data.M, data.N, data.J) == (5, 15, 3)
    assert data.dim == 15
    assert len(data.firms) == 5
    full = load_grunfeld(first_years=None)
    assert full.N == 20


def test_grunfeld_zellner_iteration_count_and_likelihood():
    data = load_grunfeld()
    result = zellner_iterate(data, tol=1e-6)
    assert result.converged
    assert abs(result.iterations - 52) <= 3
    ll = sur_profile_loglik(result.theta, data)
    assert abs(ll - (-263.7)) < 0.1


@pytest.mark.parametrize("args, message", [
    (["--tol", "0"], "tol must be finite and positive"),
    (["--tol", "-0.5"], "tol must be finite and positive"),
    (["--tol", "nan"], "tol must be finite and positive"),
    (["--tol", "inf"], "tol must be finite and positive"),
    (["--max-iter", "0"], "max_iter must be at least 1"),
    (["--max-iter", "-1"], "max_iter must be at least 1"),
    (["--first-years", "2"],
     "unidentifiable system: 2 observations per equation for 3 covariates"),
    (["--first-years", "3"],
     "unidentifiable system: 3 observations per equation for 3 covariates"),
])
def test_cli_sur_fit_rejects_bad_numbers(capsys, args, message):
    # tol 0 used to end in a bare ValueError; tol nan and max-iter <= 0
    # used to report an unconverged fit with exit 0, and a panel of
    # N <= J years a log-likelihood of -inf as converged
    assert main(["sur-fit", *args]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_cli_sur_fit_writes_sorted_json(tmp_path):
    assert main(["sur-fit", "--out", str(tmp_path)]) == 0
    text = (tmp_path / "sur_fit.json").read_text(encoding="utf-8")
    fit = json.loads(text)
    assert text == json.dumps(fit, indent=2, sort_keys=True) + "\n"
    assert fit["converged"] and len(fit["theta"]) == 15
    assert fit["log_likelihood"] == fit["trajectory"][-1]


def dispersed_ascents(data, n=12):
    """(converged, log pi at the end) of BFGS ascents on the profile
    likelihood of `data` from n starts dispersed about the Zellner fit
    of the 15-year panel: theta (1 + N(0, 0.5^2)) + N(0, 1), seed 0."""
    theta = zellner_iterate(load_grunfeld(15)).theta
    target = SurProfileTarget(data)
    rng = np.random.default_rng(0)
    ends = []
    for _ in range(n):
        x0 = (theta * (1.0 + rng.normal(0.0, 0.5, theta.size))
              + rng.normal(0.0, 1.0, theta.size))
        mu, converged = local_optimize(x0, target)
        ends.append((converged, target.log_density(mu)))
    return ends


def test_grunfeld_profile_likelihood_has_one_mode_at_fifteen_years():
    # the bundled panel at its default length is unimodal: every
    # dispersed ascent ends at the Zellner fixed point
    data = load_grunfeld(15)
    zellner = sur_profile_loglik(zellner_iterate(data).theta, data)
    assert abs(zellner - (-263.7295)) < 1e-4
    for converged, logpi in dispersed_ascents(data):
        assert converged and abs(logpi - zellner) < 1e-6


def test_grunfeld_profile_likelihood_has_no_mode_found_at_ten_years():
    # with 10 years for 5 equations of 3 covariates the ascents climb
    # toward a singular residual covariance, where the profile
    # likelihood has no bound: Zellner's GLS step meets a singular
    # normal matrix, and no ascent converges
    data = load_grunfeld(10)
    with pytest.raises(UnidentifiableSystemError):
        zellner_iterate(data)
    assert not any(converged for converged, _ in dispersed_ascents(data))


def test_alps_with_null_init_samples_level_zero_at_the_mode():
    # with a null init every chain of the ladder starts at the dominant
    # registered mode, here the profile likelihood's one mode.  Level 0 is
    # not truncated, and started at theta = 0 it stayed far outside
    # the truncation ball of level 1 (median quad form about 2400) while
    # the levels above it sampled the mode
    cfg = RunConfig.from_dict(deep_merge(
        preset_dict("sur-grunfeld"),
        {"total_target_samples": 100, "burnin_samples": 50}))
    assert cfg.init is None
    samples, diag = alps_run(cfg, build_target(cfg.target.name,
                                               cfg.target.params))
    snap = diag.registry.snapshot()
    qf = snap.quad_forms(samples[cfg.burnin_samples:])
    dominant = int(np.argmax(snap.log_weights))
    assert np.median(qf[:, dominant]) < 2.0 * chi2_quantile(0.9999, 15)
