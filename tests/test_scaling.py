import math
from dataclasses import astuple

import numpy as np
import pytest
from scipy.special import ndtr

from alps import scaling
from alps.cli import main
from alps.rng import SCALING_STREAM, StreamFactory
from alps.scaling import (EnvelopeViolationError, ScalingExperimentConfig,
                          ScalingRow, _envelope_log_constant,
                          _sample_tempered_coords, _shape_derivatives,
                          predicted_acceptance, scaling_experiment)
from alps.targets.product import GaussianShape, SkewShape


def reference_sample_tempered_coords(shape, beta, env_sd, log_m, n_coords,
                                     rng):
    """The rejection sampler as one expression per step, returning draws only."""
    out = np.empty(n_coords)
    filled = 0
    log_env_norm = math.log(env_sd * math.sqrt(2.0 * math.pi))
    while filled < n_coords:
        m = min(max(2 * (n_coords - filled), 64), scaling._BATCH)
        t = env_sd * rng.standard_normal(m)
        log_acc = (beta * np.asarray(shape(t), dtype=float)
                   + 0.5 * (t / env_sd) ** 2 + log_env_norm - log_m)
        assert not np.any(log_acc > 0)
        keep = np.log1p(-rng.random(m)) < log_acc
        kept = t[keep]
        take = min(kept.size, n_coords - filled)
        out[filled:filled + take] = kept[:take]
        filled += take
    return out


def reference_leap_log_ratios(shape, beta, abs_h2, x, y):
    """The leap ratio evaluating the shape at both x and y."""
    half_h2 = 0.5 * abs_h2
    gx = np.asarray(shape(x), dtype=float) + half_h2 * x * x
    gy = np.asarray(shape(y), dtype=float) + half_h2 * y * y
    return beta * (gy.sum(axis=1) - gx.sum(axis=1))


def reference_scaling_experiment(cfg):
    """The experiment with h(x) recomputed in the leap ratio."""
    h2, h3 = _shape_derivatives(cfg.shape)
    abs_h2 = -h2
    predicted = predicted_acceptance(h3, h2, cfg.ell)
    factory = StreamFactory(cfg.seed)
    rows = []
    for d in cfg.dims:
        beta = cfg.ell * d
        env_sd = math.sqrt(2.0 * max(1.0, abs_h2) / (beta * abs_h2))
        log_m = _envelope_log_constant(cfg.shape, beta, env_sd)
        rng = factory.stream(SCALING_STREAM, counter=d)
        prop_sd = 1.0 / math.sqrt(beta * abs_h2)
        vals = np.empty(cfg.samples)
        done = 0
        while done < cfg.samples:
            rows_here = min(cfg.samples - done, max(scaling._BATCH // d, 1))
            x = reference_sample_tempered_coords(
                cfg.shape, beta, env_sd, log_m, rows_here * d,
                rng).reshape(rows_here, d)
            y = prop_sd * rng.standard_normal((rows_here, d))
            b = reference_leap_log_ratios(cfg.shape, beta, abs_h2, x, y)
            vals[done:done + rows_here] = np.where(b >= 0.0, 1.0, np.exp(b))
            done += rows_here
        observed = float(np.mean(vals))
        stderr = float(np.std(vals, ddof=1) / math.sqrt(cfg.samples))
        rows.append(ScalingRow(d=d, beta=float(beta), observed_rate=observed,
                               mc_stderr=stderr, predicted_rate=predicted))
    return rows


def test_predicted_acceptance_symmetric_shape_is_one():
    assert predicted_acceptance(0.0, -1.0, 5.0) == 1.0


def test_predicted_acceptance_closed_form():
    h3, h2, ell = 6.0, -1.0, 15.0 / 12.0
    arg = -math.sqrt(0.5) * math.sqrt(15 * h3 ** 2 / (36 * ell * abs(h2) ** 3))
    expected = 2.0 * ndtr(arg)
    got = predicted_acceptance(h3, h2, ell)
    assert abs(got - expected) < 1e-15
    assert abs(got - 0.0143) < 5e-5


def test_predicted_acceptance_monotone_in_ell():
    rates = [predicted_acceptance(2.0, -1.0, ell)
             for ell in (0.5, 1.0, 2.0, 8.0)]
    assert all(a < b for a, b in zip(rates, rates[1:]))
    assert all(0.0 < r < 1.0 for r in rates)


def test_predicted_acceptance_validation():
    with pytest.raises(ValueError):
        predicted_acceptance(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        predicted_acceptance(1.0, -1.0, 0.0)


def test_config_validation(capsys):
    for ell in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="ell"):
            ScalingExperimentConfig(shape=GaussianShape(), ell=ell)
    for ell in ("inf", "nan"):
        assert main(["scaling", "--ell", ell]) == 2
        assert capsys.readouterr().err.startswith("config error: ell")
    with pytest.raises(ValueError):
        ScalingExperimentConfig(shape=GaussianShape(), ell=1.0, dims=(1,))
    with pytest.raises(ValueError):
        ScalingExperimentConfig(shape=GaussianShape(), ell=1.0, samples=1)


def test_gaussian_shape_rate_is_exactly_one():
    # symmetric shape: the quadratic correction cancels per coordinate,
    # every log ratio is exactly zero
    cfg = ScalingExperimentConfig(shape=GaussianShape(), ell=1.0,
                                  dims=(4, 8), samples=2000, seed=3)
    rows = scaling_experiment(cfg)
    for row in rows:
        assert row.observed_rate == 1.0
        assert row.mc_stderr == 0.0
        assert row.predicted_rate == 1.0


def test_tempered_sampler_moments():
    # Gaussian shape at inverse temperature beta: coordinates are N(0, 1/beta)
    shape = GaussianShape()
    beta, env_sd = 10.0, math.sqrt(2.0 / 10.0)
    log_m = _envelope_log_constant(shape, beta, env_sd)
    rng = np.random.default_rng(0)
    draws, _ = _sample_tempered_coords(shape, beta, env_sd, log_m, 20000, rng)
    assert abs(np.mean(draws)) < 3.0 * math.sqrt(0.1 / 20000)
    var = np.var(draws)
    assert abs(var - 0.1) < 3.0 * 0.1 * math.sqrt(2.0 / 20000)


@pytest.mark.parametrize("shape", [SkewShape(alpha=2.0), GaussianShape()])
@pytest.mark.parametrize("batch", [1 << 18, 1 << 9])
def test_sampler_matches_reference_and_carries_h(monkeypatch, shape, batch):
    # the carried h values are the shape at the draws, bit for bit, and
    # the in-place rejection step keeps every draw of the one-expression one
    monkeypatch.setattr(scaling, "_BATCH", batch)
    beta, env_sd = 8.0, 0.5
    log_m = _envelope_log_constant(shape, beta, env_sd)
    draws, h = _sample_tempered_coords(shape, beta, env_sd, log_m, 5000,
                                       np.random.default_rng(4))
    ref = reference_sample_tempered_coords(shape, beta, env_sd, log_m, 5000,
                                           np.random.default_rng(4))
    assert np.array_equal(draws, ref, equal_nan=True)
    assert np.array_equal(h, shape(draws), equal_nan=True)


@pytest.mark.parametrize("shape", [SkewShape(alpha=2.0), GaussianShape()])
@pytest.mark.parametrize("batch", [1 << 18, 1 << 9])
def test_experiment_matches_evaluate_twice_reference(monkeypatch, shape,
                                                     batch):
    # a small batch runs several row blocks per dimension and several
    # rejection rounds per block
    monkeypatch.setattr(scaling, "_BATCH", batch)
    cfg = ScalingExperimentConfig(shape=shape, ell=0.5, dims=(4, 10, 16),
                                  samples=3000, seed=11)
    rows = [astuple(r) for r in scaling_experiment(cfg)]
    ref = [astuple(r) for r in reference_scaling_experiment(cfg)]
    assert np.array_equal(rows, ref, equal_nan=True)


def test_understated_envelope_is_detected():
    shape = SkewShape(alpha=2.0)
    beta, env_sd = 20.0, 0.3
    log_m = _envelope_log_constant(shape, beta, env_sd)
    rng = np.random.default_rng(1)
    with pytest.raises(EnvelopeViolationError) as info:
        _sample_tempered_coords(shape, beta, env_sd, log_m - 5.0, 1000, rng)
    assert math.isfinite(info.value.abscissa)


def test_stderr_scales_with_sample_size():
    base = dict(shape=SkewShape(alpha=2.0), ell=1.0, dims=(4,), seed=2)
    small = scaling_experiment(ScalingExperimentConfig(samples=4000, **base))
    large = scaling_experiment(ScalingExperimentConfig(samples=16000, **base))
    ratio = small[0].mc_stderr / large[0].mc_stderr
    assert abs(ratio - 2.0) < 0.5


def test_experiment_rows_and_determinism():
    cfg = ScalingExperimentConfig(shape=SkewShape(alpha=2.0), ell=1.0,
                                  dims=(4, 8), samples=3000, seed=9)
    rows = scaling_experiment(cfg)
    again = scaling_experiment(cfg)
    assert [r.d for r in rows] == [4, 8]
    for r, r2 in zip(rows, again):
        assert r == r2
        assert r.beta == r.d * 1.0
        assert 0.0 < r.observed_rate <= 1.0
        assert r.mc_stderr > 0.0


def test_dimension_stream_is_order_independent():
    # each dimension consumes its own counter-indexed stream, so adding a
    # dimension to the grid does not perturb the others
    shape = SkewShape(alpha=2.0)
    rows_ab = scaling_experiment(ScalingExperimentConfig(
        shape=shape, ell=1.0, dims=(4, 8), samples=2000, seed=5))
    rows_b = scaling_experiment(ScalingExperimentConfig(
        shape=shape, ell=1.0, dims=(8,), samples=2000, seed=5))
    assert rows_ab[1] == rows_b[0]
    st = StreamFactory(5).stream(SCALING_STREAM, counter=8)
    assert st is not None
