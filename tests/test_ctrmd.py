import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from ctrmd import (POWER, WEIGHT_PRESERVING, CtrmdSpec, component_masses,
                   ctrmd_log_density, tempered_component_log_weights)

SPEC = CtrmdSpec(weights=(0.3, 0.7), mus=(0.0, 20.0), variances=(1.0, 4.0))


def test_beta_one_matches_plain_mixture():
    # at beta = 1 both modes reduce to the untempered mixture density
    for mode in (WEIGHT_PRESERVING, POWER):
        for x in (-1.0, 0.5, 19.0, 22.0):
            expected = np.log(0.3 * norm.pdf(x, 0.0, 1.0)
                              + 0.7 * norm.pdf(x, 20.0, 2.0))
            assert abs(ctrmd_log_density(SPEC, x, 1.0, mode)
                       - expected) < 1e-12


def test_density_integrates_to_one():
    for mode in (WEIGHT_PRESERVING, POWER):
        for beta in (1.0, 4.0, 16.0):
            val, _ = quad(lambda t: np.exp(ctrmd_log_density(SPEC, t, beta,
                                                             mode)),
                          -np.inf, np.inf, limit=400)
            assert abs(val - 1.0) < 1e-8


def test_weight_preserving_masses_stay_put():
    for beta in (1.0, 4.0, 16.0):
        masses = component_masses(SPEC, beta, WEIGHT_PRESERVING, [10.0])
        np.testing.assert_allclose(masses, [0.3, 0.7], atol=1e-6)


def test_power_mode_distorts_by_root_det():
    # power tempering reweights by |Sigma_j|^{(1-beta)/2}
    for beta in (2.0, 4.0):
        w = np.array(SPEC.weights)
        var = np.array(SPEC.variances)
        raw = w ** beta * var ** (0.5 * (1.0 - beta))
        expected = raw / raw.sum()
        masses = component_masses(SPEC, beta, POWER, [10.0])
        np.testing.assert_allclose(masses, expected, atol=1e-6)
        log_w = tempered_component_log_weights(SPEC, beta, POWER)
        np.testing.assert_allclose(np.exp(log_w), expected, atol=1e-12)


def test_power_vs_weight_preserving_equal_variances():
    # with equal component variances the det factor cancels but the
    # w_j^beta distortion remains
    spec = CtrmdSpec(weights=(0.5, 0.5), mus=(0.0, 10.0), variances=(1.0, 1.0))
    wp = np.exp(tempered_component_log_weights(spec, 3.0, WEIGHT_PRESERVING))
    pw = np.exp(tempered_component_log_weights(spec, 3.0, POWER))
    np.testing.assert_allclose(wp, [0.5, 0.5], atol=1e-14)
    np.testing.assert_allclose(pw, [0.5, 0.5], atol=1e-14)


def test_paper_sigma_power_example():
    # two components, w = (0.5, 0.5), variances (sigma^2, 1): power mode
    # at beta = 2 tilts the weights by (sigma^2)^{-1/2}
    sigma2 = 0.04
    spec = CtrmdSpec(weights=(0.5, 0.5), mus=(0.0, 10.0),
                     variances=(sigma2, 1.0))
    pw = np.exp(tempered_component_log_weights(spec, 2.0, POWER))
    ratio = pw[0] / pw[1]
    assert abs(ratio - sigma2 ** -0.5) < 1e-10


def test_student_t_base_shape():
    spec = CtrmdSpec(weights=(0.5, 0.5), mus=(0.0, 8.0), variances=(1.0, 1.0),
                     g="student_t", df=4.0)
    val, _ = quad(lambda t: np.exp(ctrmd_log_density(spec, t, 2.0,
                                                     WEIGHT_PRESERVING)),
                  -np.inf, np.inf, limit=400)
    assert abs(val - 1.0) < 1e-6
    masses = component_masses(spec, 2.0, WEIGHT_PRESERVING, [4.0])
    np.testing.assert_allclose(masses, [0.5, 0.5], atol=1e-4)


def test_spec_validation():
    with pytest.raises(ValueError):
        CtrmdSpec(weights=(0.5, 0.6), mus=(0.0, 1.0), variances=(1.0, 1.0))
    with pytest.raises(ValueError):
        CtrmdSpec(weights=(0.5, 0.5), mus=(0.0, 1.0), variances=(1.0, -1.0))
    with pytest.raises(ValueError):
        CtrmdSpec(weights=(0.5, 0.5), mus=(0.0, 1.0), variances=(1.0, 1.0),
                  g="cauchy")
    with pytest.raises(ValueError):
        ctrmd_log_density(SPEC, 0.0, -1.0)
    with pytest.raises(ValueError):
        tempered_component_log_weights(SPEC, 2.0, "other")
