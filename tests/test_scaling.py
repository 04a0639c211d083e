import hashlib
import math
import threading
import time
import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from scipy.special import ndtr

from alps import cli, scaling
from alps.cli import main
from alps.numdiff import richardson_second_derivative
from alps.rng import SCALING_STREAM, StreamFactory
from alps.scaling import (EnvelopeViolationError, ScalingExperimentConfig,
                          ScalingRow, _envelope_log_constant, _log_acceptance,
                          _sample_tempered_coords, predicted_acceptance,
                          scaling_experiment)
from alps.targets.product import GaussianShape, SkewShape


def reference_sample_tempered_coords(shape, beta, env_sd, log_m, n_coords,
                                     rng, accept):
    """The rejection sampler as one expression per step, returning draws only."""
    out = np.empty(n_coords)
    filled = 0
    log_env_norm = math.log(env_sd * math.sqrt(2.0 * math.pi))
    while filled < n_coords:
        need = n_coords - filled
        m = min(math.ceil(need / accept * 1.01 + 3.0 * math.sqrt(need)) + 64,
                scaling._BLOCK)
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
    """The experiment with h(x) recomputed in the leap ratio and the
    envelope's curvature recomputed here."""
    h2, h3 = cfg.shape.h2(), cfg.shape.h3()
    abs_h2 = -h2
    predicted = predicted_acceptance(h3, h2, cfg.ell)
    curvature = min(-richardson_second_derivative(
        lambda t: float(cfg.shape(np.array([t]))[0]), t0)
        for t0 in (0.0, -8.0, 8.0))
    factory = StreamFactory(cfg.seed)
    rows = []
    for d in cfg.dims:
        beta = cfg.ell * d
        env_sd = 1.02 / math.sqrt(beta * curvature)
        log_m, accept = _envelope_log_constant(cfg.shape, beta, env_sd)
        rng = factory.stream(SCALING_STREAM, counter=d)
        prop_sd = 1.0 / math.sqrt(beta * abs_h2)
        vals = np.empty(cfg.samples)
        done = 0
        while done < cfg.samples:
            rows_here = min(cfg.samples - done, max(scaling._BLOCK // d, 1))
            x = reference_sample_tempered_coords(
                cfg.shape, beta, env_sd, log_m, rows_here * d, rng,
                accept).reshape(rows_here, d)
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
    log_m, accept = _envelope_log_constant(shape, beta, env_sd)
    rng = np.random.default_rng(0)
    draws, _ = _sample_tempered_coords(shape, beta, env_sd, log_m, 20000, rng,
                                       accept)
    assert abs(np.mean(draws)) < 3.0 * math.sqrt(0.1 / 20000)
    var = np.var(draws)
    assert abs(var - 0.1) < 3.0 * 0.1 * math.sqrt(2.0 / 20000)


@pytest.mark.parametrize("shape", [SkewShape(alpha=2.0), GaussianShape()])
@pytest.mark.parametrize("block", [1 << 18, 1 << 9])
def test_sampler_matches_reference_and_carries_h(monkeypatch, shape, block):
    # the carried h values are the shape at the draws, bit for bit, and
    # the in-place rejection step keeps every draw of the one-expression one
    monkeypatch.setattr(scaling, "_BLOCK", block)
    beta, env_sd = 8.0, 0.5
    log_m, accept = _envelope_log_constant(shape, beta, env_sd)
    draws, h = _sample_tempered_coords(shape, beta, env_sd, log_m, 5000,
                                       np.random.default_rng(4), accept)
    ref = reference_sample_tempered_coords(shape, beta, env_sd, log_m, 5000,
                                           np.random.default_rng(4), accept)
    assert np.array_equal(draws, ref, equal_nan=True)
    assert np.array_equal(h, shape(draws), equal_nan=True)


@pytest.mark.parametrize("d", [10, 80])
def test_log_acceptance_is_the_left_to_right_sum(d):
    # pins the last bits of the rejection log-ratio, which decide draws
    # only over long runs: any reordering of its sum changes some entry
    shape, ell = SkewShape(alpha=2.0), 0.25
    beta = ell * d
    curvature = ScalingExperimentConfig(shape=shape, ell=ell).env_curvature
    env_sd = 1.02 / math.sqrt(beta * curvature)
    log_m, _ = _envelope_log_constant(shape, beta, env_sd)
    log_env_norm = math.log(env_sd * math.sqrt(2.0 * math.pi))
    t = env_sd * np.random.default_rng(d).standard_normal(20000)
    h = shape(t)
    log_acc, _ = _log_acceptance(t, h, beta, env_sd, log_env_norm, log_m)
    ref = beta * h + 0.5 * (t / env_sd) ** 2 + log_env_norm - log_m
    assert np.array_equal(log_acc, ref)


@pytest.mark.parametrize("shape", [SkewShape(alpha=2.0), GaussianShape()])
@pytest.mark.parametrize("block", [1 << 18, 1 << 9])
def test_experiment_matches_evaluate_twice_reference(monkeypatch, shape,
                                                     block):
    # a small block runs several row chunks per dimension and several
    # rejection rounds per chunk
    monkeypatch.setattr(scaling, "_BLOCK", block)
    cfg = ScalingExperimentConfig(shape=shape, ell=0.5, dims=(4, 10, 16),
                                  samples=3000, seed=11)
    rows = [astuple(r) for r in scaling_experiment(cfg)]
    ref = [astuple(r) for r in reference_scaling_experiment(cfg)]
    assert np.array_equal(rows, ref, equal_nan=True)


def test_understated_envelope_is_detected():
    shape = SkewShape(alpha=2.0)
    beta, env_sd = 20.0, 0.3
    log_m, accept = _envelope_log_constant(shape, beta, env_sd)
    rng = np.random.default_rng(1)
    with pytest.raises(EnvelopeViolationError) as info:
        _sample_tempered_coords(shape, beta, env_sd, log_m - 5.0, 1000, rng,
                                accept)
    assert math.isfinite(info.value.abscissa)


@pytest.mark.parametrize("poison", ["nan", "positive", "tied"])
def test_rejection_batch_names_the_bad_abscissa(poison):
    # a NaN shape value is an envelope failure, not a rejected draw.  The
    # round's first excess comes before its first NaN and its largest
    # excess after; the error names the first NaN, or else the largest
    # excess, or else the first of the tied largest (an excess so large
    # that t no longer shows in it)
    skew = SkewShape(alpha=2.0)
    beta, env_sd, m = 20.0, 0.3, 4096
    log_m, _ = _envelope_log_constant(skew, beta, env_sd)
    log_env_norm = math.log(env_sd * math.sqrt(2.0 * math.pi))
    nan_above = 0.9 if poison == "nan" else math.inf
    excess = 1e20 if poison == "tied" else 1e3

    def shape(t):
        bad = np.where(t > nan_above, np.nan, excess)
        return np.where(t > 0.5, bad, skew(t))

    t = env_sd * np.random.default_rng(3).standard_normal(m)
    first_excess = int(np.flatnonzero(t > 0.5)[0])
    first_nan = int(np.flatnonzero(t > 0.9)[0])
    assert first_excess < first_nan < int(np.argmax(t))
    bad = float({"nan": t[first_nan], "positive": t.max(),
                 "tied": t[first_excess]}[poison])
    with pytest.raises(EnvelopeViolationError) as info:
        scaling._rejection_batch(shape, beta, env_sd, log_env_norm, log_m, m,
                                 np.random.default_rng(3), np.empty(m),
                                 np.empty(m))
    assert info.value.abscissa == bad
    assert f"x = {bad:.6g}" in str(info.value)
    assert ("log acceptance ratio nan" in str(info.value)) == (poison == "nan")
    # the same draws with a finite shape pass the check
    kept = scaling._rejection_batch(skew, beta, env_sd, log_env_norm,
                                    log_m, m, np.random.default_rng(3),
                                    np.empty(m), np.empty(m))
    assert 0 < kept < m


@pytest.mark.parametrize("poison", ["nan", "positive", "tied"])
def test_rejection_batch_checks_every_block(monkeypatch, poison):
    # blocks (rejection rounds) of 256 proposals: the shape turns bad only
    # in the third round, which is still checked whole; the error names
    # that round's first NaN, or else its largest excess, or else the first
    # of its tied largest
    monkeypatch.setattr(scaling, "_BLOCK", 256)
    skew = SkewShape(alpha=2.0)
    beta, env_sd = 20.0, 0.3
    log_m, accept = _envelope_log_constant(skew, beta, env_sd)
    nan_above = 0.3 if poison == "nan" else math.inf
    excess = 1e20 if poison == "tied" else 1e3
    rounds = []

    def shape(t):
        rounds.append(t.copy())
        if len(rounds) < 3:
            return skew(t)
        bad = np.where(t > nan_above, np.nan, excess)
        return np.where(t > 0.0, bad, skew(t))

    with pytest.raises(EnvelopeViolationError) as info:
        _sample_tempered_coords(shape, beta, env_sd, log_m, 4096,
                                np.random.default_rng(3), accept)
    assert [r.size for r in rounds] == [256, 256, 256]
    t = rounds[2]
    first_excess = int(np.flatnonzero(t > 0.0)[0])
    first_nan = int(np.flatnonzero(t > 0.3)[0])
    assert 0 < first_excess < first_nan < int(np.argmax(t))
    bad = float({"nan": t[first_nan], "positive": t.max(),
                 "tied": t[first_excess]}[poison])
    assert info.value.abscissa == bad
    assert f"x = {bad:.6g}" in str(info.value)
    assert ("log acceptance ratio nan" in str(info.value)) == (poison == "nan")


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


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("shape", [SkewShape(alpha=2.0), GaussianShape()])
def test_blocked_threaded_experiment_matches_reference(monkeypatch, shape,
                                                       workers):
    # blocks of 2^7 run several rounds per row chunk and several chunks
    # per dimension; d = 160 exceeds the block, so a chunk is one row
    monkeypatch.setattr(scaling, "_BLOCK", 1 << 7)
    monkeypatch.setattr(scaling, "_worker_count",
                        lambda n_dims: min(n_dims, workers))
    threads = set()
    dimension = scaling._dimension

    def recorded(*args):
        threads.add(threading.get_ident())
        return dimension(*args)

    monkeypatch.setattr(scaling, "_dimension", recorded)
    cfg = ScalingExperimentConfig(shape=shape, ell=0.5, dims=(4, 16, 10, 160),
                                  samples=3000, seed=11)
    rows = [astuple(r) for r in scaling_experiment(cfg)]
    ref = [astuple(r) for r in reference_scaling_experiment(cfg)]
    assert np.array_equal(rows, ref, equal_nan=True)
    assert [r[0] for r in rows] == [4, 16, 10, 160]
    assert threading.get_ident() not in threads and len(threads) <= workers


def test_worker_failure_cancels_the_dimensions_not_started(monkeypatch):
    # the largest dimension starts first and fails; the two dimensions the
    # workers hold then finish, and the rest never start
    monkeypatch.setattr(scaling, "_worker_count", lambda n_dims: 2)
    started = []
    holding = threading.Event()

    def dimension(cfg, d, abs_h2, predicted):
        started.append(d)
        if d == 9:
            assert holding.wait(timeout=10.0)
            raise EnvelopeViolationError(0.5, "poisoned dimension")
        holding.set()
        time.sleep(0.5)
        return None

    monkeypatch.setattr(scaling, "_dimension", dimension)
    cfg = ScalingExperimentConfig(shape=GaussianShape(), ell=1.0,
                                  dims=tuple(range(2, 10)), samples=10)
    with pytest.raises(EnvelopeViolationError, match="poisoned dimension"):
        scaling_experiment(cfg)
    assert started[:2] == [9, 8] or started[:2] == [8, 9]
    assert set(started) <= {9, 8, 7}


def test_cli_worker_failure_exits_3(monkeypatch, capsys):
    monkeypatch.setattr(scaling, "_worker_count", lambda n_dims: 2)
    envelope = scaling._envelope_log_constant

    def poisoned(shape, beta, env_sd):
        if beta == 8.0:
            raise EnvelopeViolationError(0.25, "poisoned envelope at d = 8")
        return envelope(shape, beta, env_sd)

    monkeypatch.setattr(scaling, "_envelope_log_constant", poisoned)
    assert main(["scaling", "--ell", "1.0", "--dims", "4,8",
                 "--samples", "200"]) == 3
    assert "numerical abort: poisoned envelope at d = 8" in \
        capsys.readouterr().err


def test_seed_must_be_a_non_negative_integer(capsys):
    # the streams are keyed on 64 bits: 2^64 used to print the rows of 0
    for seed in (-1, 1.5, True, "3", 2 ** 64, 2 ** 64 + 1):
        with pytest.raises(ValueError, match="seed"):
            ScalingExperimentConfig(shape=GaussianShape(), ell=1.0, seed=seed)
    for seed in ("-1", str(2 ** 64)):
        assert main(["scaling", "--seed", seed]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: seed must be a non-negative integer")


def test_shape_without_its_derivatives_is_a_config_error(monkeypatch, capsys):
    def bare_gaussian(x):
        x = np.asarray(x, dtype=float)
        return -0.5 * x * x

    with pytest.raises(ValueError, match=r"h2\(\) and h3\(\)"):
        ScalingExperimentConfig(shape=bare_gaussian, ell=1.0)
    monkeypatch.setattr(cli, "GaussianShape", lambda: bare_gaussian)
    assert main(["scaling", "--shape", "gaussian"]) == 2
    assert capsys.readouterr().err.startswith(
        "config error: shape must define h2() and h3()")


def _envelope(shape, beta):
    """The experiment's envelope at beta: (env_sd, log_m, accept)."""
    env_sd = 1.02 / math.sqrt(beta * scaling._envelope_curvature(shape))
    return (env_sd,) + _envelope_log_constant(shape, beta, env_sd)


class CountingShape:
    """The shape, counting the points it is evaluated at."""

    def __init__(self, shape):
        self.shape, self.points = shape, 0

    def __call__(self, x):
        self.points += np.size(x)
        return self.shape(x)


@pytest.mark.parametrize("beta", [2.5, 20.0])
def test_tempered_sampler_matches_quadrature_moments(beta):
    # the narrowed envelope still samples exp(beta*h): mean and variance of
    # the skew shape's draws against a fine Riemann sum
    shape, n = SkewShape(alpha=2.0), 20000
    env_sd, log_m, accept = _envelope(shape, beta)
    draws, _ = _sample_tempered_coords(shape, beta, env_sd, log_m, n,
                                       np.random.default_rng(7), accept)
    t = np.linspace(-15.0, 15.0, 300001) / math.sqrt(beta)
    w = np.exp(beta * shape(t))
    w /= w.sum()
    mean = float(np.sum(w * t))
    var = float(np.sum(w * (t - mean) ** 2))
    m4 = float(np.sum(w * (t - mean) ** 4))
    assert abs(np.mean(draws) - mean) < 4.0 * math.sqrt(var / n)
    assert abs(np.var(draws) - var) < 4.0 * math.sqrt((m4 - var ** 2) / n)


def test_envelope_acceptance_estimates():
    # the Gaussian shape's envelope is exactly 2% wider than exp(beta*h),
    # so p = exp(-margin) / 1.02; the skew shape's flat right tail sets it
    for beta in (2.5, 20.0):
        _, _, accept = _envelope(GaussianShape(), beta)
        assert abs(accept - math.exp(-1e-6 * (1.0 + beta)) / 1.02) < 1e-9
        _, _, accept = _envelope(SkewShape(alpha=2.0), beta)
        assert 0.63 < accept < 0.65


@pytest.mark.parametrize("shape, beta", [(SkewShape(alpha=2.0), 2.5),
                                         (SkewShape(alpha=2.0), 20.0),
                                         (GaussianShape(), 10.0)])
def test_observed_acceptance_matches_the_estimate(shape, beta):
    # one round with room for every accepted proposal
    env_sd, log_m, accept = _envelope(shape, beta)
    log_env_norm = math.log(env_sd * math.sqrt(2.0 * math.pi))
    m = 1 << 16
    kept = scaling._rejection_batch(shape, beta, env_sd, log_env_norm, log_m,
                                    m, np.random.default_rng(5), np.empty(m),
                                    np.empty(m))
    assert abs(kept / m - accept) < 4.0 * math.sqrt(accept * (1 - accept) / m)


@pytest.mark.parametrize("n_coords", [20000, 1 << 18, 3 << 18])
@pytest.mark.parametrize("shape, beta", [(SkewShape(alpha=2.0), 2.5),
                                         (SkewShape(alpha=2.0), 20.0),
                                         (GaussianShape(), 10.0)])
def test_rounds_evaluate_few_surplus_proposals(shape, beta, n_coords):
    # every proposal drawn is evaluated once; the rounds are sized so that
    # few accepted draws are thrown away, also when _BLOCK caps a round
    counted = CountingShape(shape)
    env_sd, log_m, accept = _envelope(shape, beta)
    draws, _ = _sample_tempered_coords(counted, beta, env_sd, log_m, n_coords,
                                       np.random.default_rng(6), accept)
    assert draws.size == n_coords
    assert counted.points / n_coords <= 1.05 / accept + 0.01


@pytest.mark.parametrize("samples", [20000, 100000])
def test_dimension_allocates_at_most_a_few_blocks(samples):
    # besides its 8-byte per-sample results, a dimension holds a chunk's
    # x, h(x) and y, one rejection round and their temporaries, each at
    # most _BLOCK floats: the peak does not grow with the sample count
    cfg = ScalingExperimentConfig(shape=SkewShape(alpha=2.0), ell=0.25,
                                  dims=(80,), samples=samples, seed=1)
    tracemalloc.start()
    try:
        scaling._dimension(cfg, 80, -cfg.shape.h2(), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - 8 * samples < 16 * scaling._BLOCK * 8


def test_envelope_needs_a_concave_shape_at_its_tails():
    # h = -log(1 + x^2 / 2) has its maximum at 0 but convex tails, which no
    # Gaussian envelope at the rule's scale covers
    class CauchyLike:
        def __call__(self, x):
            return -np.log1p(0.5 * np.asarray(x, dtype=float) ** 2)

        def h2(self):
            return -1.0

        def h3(self):
            return 0.0

    with pytest.raises(ValueError, match="strictly concave at 0 and"):
        ScalingExperimentConfig(shape=CauchyLike(), ell=1.0)
    cfg = ScalingExperimentConfig(shape=SkewShape(alpha=2.0), ell=1.0)
    assert abs(cfg.env_curvature - 1.0) < 1e-6  # the right tail's -h''


def test_repeated_dims_are_a_config_error(capsys):
    # each dimension reads stream counter d: both rows used to be the same
    with pytest.raises(ValueError, match="dims must not repeat"):
        ScalingExperimentConfig(shape=GaussianShape(), ell=1.0, dims=(20, 20))
    assert main(["scaling", "--dims", "20,10,20"]) == 2
    assert capsys.readouterr().err == (
        "config error: dims must not repeat, got (20, 10, 20)\n")


@pytest.mark.parametrize("alpha", ["inf", "-inf", "nan"])
def test_non_finite_alpha_is_a_config_error(capsys, alpha):
    # the mode search used to overflow on it first, with a RuntimeWarning
    with pytest.raises(ValueError, match="alpha must be a finite number"):
        SkewShape(alpha=float(alpha))
    assert main(["scaling", f"--alpha={alpha}"]) == 2
    assert capsys.readouterr().err == (
        f"config error: alpha must be a finite number, got {float(alpha)}\n")


# `alps scaling --dims 10,20 --samples 2000 --seed 1` (perfbench's smoke
# size), recorded on x86-64 Linux (numpy 2.4): a change to the envelope,
# the rounds, the chunks or the leap ratio changes it.  Pinned again when
# a chunk became max(2^15 // d, 1) rows: d = 20 now draws two chunks of
# x then y instead of one, so its row moved; d = 10 fits one either way
SCALING_CSV_SHA256 = \
    "bd2f4ef193e57500355bacccf586eb8669a973c959f056dbf754f00fcadb2c2e"


def test_smoke_scaling_csv_is_pinned(tmp_path, capsys):
    assert main(["scaling", "--dims", "10,20", "--samples", "2000",
                 "--seed", "1", "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    digest = hashlib.sha256((tmp_path / "scaling.csv").read_bytes())
    assert digest.hexdigest() == SCALING_CSV_SHA256
