from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from alps import kernels, runner
from alps.config import V, RunConfig
from alps.diagnostics import SWAP_QUANTA
from alps.hat import Level, level_values
from alps.kernels import (mixture_log_density, mixture_propose,
                          mode_leap_core, quanta_swap_core, quanta_transform,
                          rwm_core, rwm_decide, standard_swap_core)
from alps.registry import ModeRegistry, make_mode_info, try_insert
from alps.targets.gaussian import GaussianMixtureTarget, GaussianTarget
from function_target import FunctionTarget
from kernel_reference import hastings_term
from kernel_reference import mixture_log_density as \
    reference_mixture_log_density
from kernel_reference import row_record, run_level


class StubRng:
    """Deterministic stand-in feeding scripted normal and uniform draws."""

    def __init__(self, normals=0.0, uniforms=0.5):
        self.normals = normals
        self.uniforms = list(np.atleast_1d(uniforms))

    def standard_normal(self, size):
        return np.full(size, self.normals)

    def random(self):
        return self.uniforms.pop(0) if len(self.uniforms) > 1 \
            else self.uniforms[0]


def gaussian_hat(mu, sigma, beta):
    base = GaussianTarget(np.asarray(mu, dtype=float),
                          np.asarray(sigma, dtype=float))
    reg = ModeRegistry(dim=base.dim, tol=1e-12)
    reg, _ = try_insert(reg, make_mode_info(np.asarray(mu, dtype=float),
                                            np.asarray(sigma, dtype=float),
                                            base.log_density(mu)))
    return Level(base, beta, reg.snapshot())


def two_mode_registry():
    reg = ModeRegistry(dim=1, tol=1e-12)
    reg, _ = try_insert(reg, make_mode_info(np.array([0.0]), np.eye(1),
                                            np.log(2.0)))
    reg, _ = try_insert(reg, make_mode_info(np.array([10.0]), np.eye(1), 0.0))
    return reg


def two_mode_snapshot():
    return two_mode_registry().snapshot()


def test_rwm_zero_displacement_accepts():
    target = gaussian_hat([0.0], [[1.0]], 1.0)
    x = np.array([0.7])
    rec = target.record(x)
    rec_new, logp, accepted = rwm_core(rec, target.value(rec)[0], target,
                                       1.0, StubRng())
    assert accepted
    np.testing.assert_array_equal(rec_new.x, x)


def test_rwm_rejects_minus_inf_region():
    box = Level(
        FunctionTarget(1, lambda x: 0.0 if abs(x[0]) < 1 else -np.inf), 1.0)
    x = np.array([0.0])
    rng = StubRng(normals=5.0, uniforms=0.5)
    rec_new, logp, accepted = rwm_core(box.record(x), 0.0, box, 1.0, rng)
    assert not accepted
    np.testing.assert_array_equal(rec_new.x, x)


def test_rwm_1d_gaussian_acceptance_benchmark():
    # 1-d N(0,1) with step s: the stationary acceptance is
    # (2/pi) atan(2/s), 0.44228 at s = 2.4
    target = gaussian_hat([0.0], [[1.0]], 1.0)
    rng = np.random.default_rng(0)
    rec = target.record(np.zeros(1))
    logp = target.value(rec)[0]
    accepts = 0
    n = 20000
    for _ in range(n):
        rec, logp, acc = rwm_core(rec, logp, target, 2.4, rng)
        accepts += acc
    assert abs(accepts / n - 2.0 / np.pi * np.arctan(2.0 / 2.4)) < 0.03


def reference_rwm_decide(x, logp_x, a_x, y, u, logp_y, a_y, snapshot,
                         scale):
    """One row's RWM decision on Python floats, with the Hastings
    correction where a finite proposal changed its allocation."""
    log_ratio = logp_y - logp_x
    if a_y != a_x and np.isfinite(logp_y):
        log_ratio += hastings_term(snapshot, y - x, a_x, a_y, scale)
    return bool(np.log(u) < log_ratio)


def test_block_rwm_decide_equals_the_row_by_row_reference(monkeypatch):
    # two 2-d modes of different shapes, so a flip's Hastings term is
    # not zero; the block holds -inf proposals, NaN values (one from
    # -inf minus -inf) and allocation flips, finite and not
    reg = ModeRegistry(dim=2, tol=1e-12)
    for mu, sigma, lp in (([0.0, 0.0], [[1.0, 0.3], [0.3, 0.5]], 0.0),
                          ([4.0, 1.0], [[0.2, 0.0], [0.0, 3.0]], -1.0)):
        reg, _ = try_insert(reg, make_mode_info(np.array(mu), np.array(sigma),
                                                lp))
    snapshot = reg.snapshot()
    rng = np.random.default_rng(4)
    n = 200
    x = rng.normal(0.0, 2.0, (n, 2))
    y = x + rng.normal(0.0, 1.0, (n, 2))
    logp_x = rng.normal(-3.0, 1.0, n)
    logp_y = logp_x + rng.normal(0.0, 1.0, n)
    logp_y[:10] = -np.inf
    logp_y[10:15] = np.nan
    logp_x[15:18] = logp_y[15:18] = -np.inf
    a_x = rng.integers(0, 2, n)
    a_y = np.where(rng.random(n) < 0.4, 1 - a_x, a_x)
    u = rng.random(n)
    scale = rng.uniform(0.5, 2.0, n)
    corrections = []
    step_log_densities = kernels._step_log_densities
    monkeypatch.setattr(kernels, "_step_log_densities",
                        lambda *a: corrections.append(a[1:])
                        or step_log_densities(*a))
    got = rwm_decide(x, logp_x, a_x, y, np.log(u), logp_y, a_y, snapshot,
                     scale)
    flipped = (a_y != a_x) & np.isfinite(logp_y)
    assert flipped.any() and (a_y != a_x)[~np.isfinite(logp_y)].any()
    # the correction is one block of exactly the flipped finite rows:
    # their reverse steps' densities, then their forward ones'
    assert len(corrections) == 2
    for (a, step, s), alloc in zip(corrections, (a_y, a_x)):
        assert np.array_equal(a, alloc[flipped])
        assert np.array_equal(step, y[flipped] - x[flipped])
        assert np.array_equal(s, scale[flipped, None])
    # a block without flipped finite rows computes no correction
    kept = np.where(flipped, a_x, a_y)
    rwm_decide(x, logp_x, a_x, y, np.log(u), logp_y, kept, snapshot, scale)
    assert len(corrections) == 2
    expected = [reference_rwm_decide(
        x[i], logp_x.tolist()[i], int(a_x[i]), y[i], u.tolist()[i],
        logp_y.tolist()[i], int(a_y[i]), snapshot, scale.tolist()[i])
        for i in range(n)]
    assert got.dtype == bool and got.tolist() == expected
    assert not got[:18].any() and 0 < got.sum() < n
    # without the correction some flipped rows would be decided otherwise
    plain = np.log(u[flipped]) < logp_y[flipped] - logp_x[flipped]
    assert (plain != got[flipped]).any()


@pytest.mark.parametrize("u", [0.3, 0.9])
def test_rwm_core_decides_as_a_block_of_one_row(u):
    # the single-chain step compares log u with the log ratio, as the
    # block decision does
    target = gaussian_hat([0.0], [[1.0]], 1.0)
    rec = target.record(np.array([0.0]))
    rng = StubRng(normals=1.0, uniforms=u)
    _, logp, accepted = rwm_core(rec, target.value(rec)[0], target, 1.0, rng)
    assert accepted == (np.log(u) < -0.5)
    assert logp == (target.value(target.record(np.array([1.0])))[0]
                    if accepted else target.value(rec)[0])


def test_quanta_transform_identity_and_scale():
    x = np.array([3.0, -1.0])
    np.testing.assert_array_equal(quanta_transform(x, 2.0, 2.0, np.zeros(2)),
                                  x)
    np.testing.assert_allclose(quanta_transform(x, 1.0, 4.0, np.zeros(2)),
                               x / 2.0, atol=1e-15)


def test_quanta_transform_round_trip():
    rng = np.random.default_rng(1)
    x = rng.standard_normal(3)
    mu = rng.standard_normal(3)
    back = quanta_transform(quanta_transform(x, 1.0, 7.0, mu), 7.0, 1.0, mu)
    np.testing.assert_allclose(back, x, atol=1e-12)


def quanta_pair(x_k, x_k1, t_k, t_k1, log_u):
    """One QuanTA pair of levels k, k + 1 as the swap phase makes it: the
    images from `quanta_swap_core`, priced at their new levels, the pair
    rejected if either image leaves its chain's allocation and else
    decided by `standard_swap_core`.  None if rejected, else (the state
    now at level k, the one now at k + 1, their values there)."""
    (lp_k, m1), (lp_k1, m2) = (t.value(t.record(x))
                               for t, x in ((t_k, x_k), (t_k1, x_k1)))
    # row 0 is proposed for level k, row 1 for level k + 1
    a_x = np.array([m2, m1])
    y, logpi_y, qf_y = quanta_swap_core(
        t_k.base, t_k.snapshot, np.array([x_k1, x_k]), a_x,
        np.array([t_k1.beta, t_k.beta]), np.array([t_k.beta, t_k1.beta]))
    logp_y, a_y = level_values(t_k.snapshot, np.array([t_k.beta, t_k1.beta]),
                               logpi_y, qf_y,
                               np.array([t_k.radius, t_k1.radius]))
    if not (np.all(a_y == a_x)
            and standard_swap_core(lp_k, lp_k1, *logp_y, log_u)):
        return None
    return y[0], y[1], logp_y[0], logp_y[1]


def test_quanta_swap_mode_points_always_accept():
    base = GaussianTarget(np.zeros(1), np.eye(1))
    snap = two_mode_snapshot()

    class Mix(FunctionTarget):
        def __init__(self):
            super().__init__(1, lambda x: float(np.logaddexp(
                np.log(2.0) - 0.5 * x[0] ** 2, -0.5 * (x[0] - 10.0) ** 2)))

    mix = Mix()
    t_k = Level(mix, 4.0, snap)
    t_k1 = Level(mix, 16.0, snap)
    lp_k, m1 = t_k.value(t_k.record(snap.mus[0]))
    lp_k1, m2 = t_k1.value(t_k1.record(snap.mus[1]))
    low, high, lp_low, lp_high = quanta_pair(snap.mus[0], snap.mus[1], t_k,
                                             t_k1, np.log(0.999999))
    assert abs((lp_low + lp_high) - (lp_k + lp_k1)) < 1e-10
    np.testing.assert_allclose(low, snap.mus[1], atol=1e-12)
    np.testing.assert_allclose(high, snap.mus[0], atol=1e-12)


def test_quanta_swap_rejects_a_proposal_that_changes_allocation():
    # modes at 0 and 10; at beta 4 the allocation boundary lies near 5.
    # The state 4.0 at beta 4, rescaled about mode 0 to beta 1, lands at
    # 8.0, which beta 1 allocates to mode 10: the reverse move would
    # rescale about 10 and return 7.0, not 4.0, so the swap is rejected
    # whatever its uniform, log u = -inf included
    snap = two_mode_snapshot()
    base = GaussianTarget(np.zeros(1), np.eye(1))
    t_k, t_k1 = Level(base, 1.0, snap), Level(base, 4.0, snap)
    x_k, x_k1 = t_k.record(np.array([0.5])), t_k1.record(np.array([4.0]))
    assert t_k.value(x_k)[1] == t_k1.value(x_k1)[1] == 0
    y_k1 = quanta_transform(x_k1.x, 4.0, 1.0, snap.mus[0])
    np.testing.assert_allclose(y_k1, [8.0])
    assert t_k.value(t_k.record(y_k1))[1] == 1
    back = quanta_transform(y_k1, 1.0, 4.0, snap.mus[1])
    assert not np.allclose(back, x_k1.x)
    assert quanta_pair(x_k.x, x_k1.x, t_k, t_k1, -np.inf) is None


def test_swap_phase_rejects_a_quanta_pair_that_changes_allocation():
    # the pair of the test above on a two-level run block: its log
    # ratio would accept it at the smallest uniform, but the swap phase
    # rejects it and leaves the block as it was
    base = GaussianTarget(np.zeros(1), np.eye(1))
    config = RunConfig.from_dict({
        "target": {"name": "gaussian"}, "ladder": {"betas": [1.0, 4.0]},
        "seed": 0, "total_target_samples": 100, "exploration": None,
        "initial_modes": [[0.0]]})
    run = runner._Run(config, base, np.array([1.0, 4.0]), hat=True)
    run.registry = two_mode_registry()
    run.X[:] = [[0.5], [4.0]]
    run.logpi[:] = base.log_density_batch(run.X)
    run.build_levels()
    snap, t_k, t_k1 = run.snapshot, run_level(run, 0), run_level(run, 1)
    before = run.X.copy(), run.logpi.copy(), run.qf.copy()

    class Draws:
        # the pair's uniform: decided at the smallest log u
        def random(self, shape):
            return np.full(shape, np.nextafter(0.0, 1.0))

    run.factory = SimpleNamespace(stream=lambda name, t: Draws())
    images = (quanta_transform(run.X[1], 4.0, 1.0, snap.mus[0]),
              quanta_transform(run.X[0], 1.0, 4.0, snap.mus[0]))
    log_ratio = ((t_k.value_and_alloc(images[0])[0]
                  + t_k1.value_and_alloc(images[1])[0])
                 - (t_k.value(row_record(run, 0))[0]
                    + t_k1.value(row_record(run, 1))[0]))
    assert np.log(np.nextafter(0.0, 1.0)) < log_ratio
    runner._swap_phase(run, 0)
    assert run.diag.counters[(SWAP_QUANTA, 0)] == [0, 1]
    for now, then in zip((run.X, run.logpi, run.qf), before):
        np.testing.assert_array_equal(now, then)
    assert run.labels.tolist() == [0, 1]


def test_quanta_equals_standard_at_equal_betas():
    snap = two_mode_snapshot()
    base = GaussianTarget(np.zeros(1), np.eye(1))
    t_a = Level(base, 4.0, snap)
    t_b = Level(base, 4.0, snap)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x_k = t_a.record(rng.standard_normal(1))
        x_k1 = t_b.record(rng.standard_normal(1) + 10.0)
        (lp_k, m1), (lp_k1, m2) = t_a.value(x_k), t_b.value(x_k1)
        # log u = -inf accepts every proposal that keeps its allocations,
        # so the QuanTA log ratio can be read off the values it returns
        _, _, lp_low, lp_high = quanta_pair(x_k.x, x_k1.x, t_a, t_b,
                                            -np.inf)
        lq = (lp_low + lp_high) - (lp_k + lp_k1)
        ls = (t_a.value(x_k1)[0] + t_b.value(x_k)[0]) - (lp_k + lp_k1)
        assert abs(lq - ls) < 1e-10
        for log_u in (ls - 1e-6, ls + 1e-6):
            assert standard_swap_core(lp_k, lp_k1, t_a.value(x_k1)[0],
                                      t_b.value(x_k)[0], log_u) == (log_u < ls)


def test_standard_swap_trivial_accepts():
    snap = two_mode_snapshot()
    base = GaussianTarget(np.zeros(1), np.eye(1))
    t_a = Level(base, 1.0, snap)
    t_b = Level(base, 4.0, snap)
    x = t_a.record(np.array([0.3]))
    lp_a, lp_b = t_a.value(x)[0], t_b.value(x)[0]
    assert standard_swap_core(lp_a, lp_b, lp_a, lp_b, np.log(0.999999))


def test_standard_swap_with_carried_logpi_is_exact():
    # pricing a swap from the carried records gives the cross values of
    # evaluating both states at the other level bit for bit, also where
    # pi vanishes (x[0] < -1), and so the same decision
    base = FunctionTarget(
        2, lambda x: -0.5 * float(x @ x) if x[0] > -1.0 else -np.inf)
    rng = np.random.default_rng(11)
    for _ in range(500):
        t_k, t_k1 = (Level(base, b) for b in rng.uniform(0.01, 1.0, 2))
        x_k, x_k1 = rng.normal(0.0, 2.0, (2, 2))
        rec_k, rec_k1 = t_k.record(x_k), t_k1.record(x_k1)
        lp_k, lp_k1 = t_k.log_density(x_k), t_k1.log_density(x_k1)
        log_u = np.log(rng.random())
        carried = (t_k.value(rec_k1)[0], t_k1.value(rec_k)[0])
        cross = (t_k.log_density(x_k1), t_k1.log_density(x_k))
        assert np.array(carried).tobytes() == np.array(cross).tobytes()
        log_ratio = (cross[0] + cross[1]) - (lp_k + lp_k1)
        assert standard_swap_core(lp_k, lp_k1, *carried, log_u) \
            == bool(log_u < log_ratio)


def test_standard_swap_rate_matches_quadrature():
    # power-tempered 1-d N(0,1) at betas (1, 2) with iid level draws;
    # acceptance = E min(1, ratio), computed independently by quadrature
    base = FunctionTarget(1, lambda x: -0.5 * float(x @ x))
    t1, t2 = Level(base, 1.0), Level(base, 2.0)
    rng = np.random.default_rng(3)
    n = 100000
    xs = rng.standard_normal(n) / 1.0
    ys = rng.standard_normal(n) / np.sqrt(2.0)
    log_r = 0.5 * (2.0 - 1.0) * (ys ** 2 - xs ** 2)
    observed = np.mean(np.minimum(1.0, np.exp(log_r)))

    def accept_given_x(x):
        # E_y min(1, ratio) for y ~ N(0, 1/2) in closed form: ratio >= 1
        # where |y| > |x|, and below it e^{(y^2 - x^2)/2} integrates
        # against the N(0, 1/2) density to sqrt(2) e^{-x^2/2} P(|z| < |x|)
        a = abs(x)
        below = np.sqrt(2.0) * np.exp(-0.5 * x * x) * (2.0 * norm.cdf(a) - 1.0)
        return 2.0 * norm.sf(np.sqrt(2.0) * a) + below

    expected, _ = quad(lambda x: accept_given_x(x) * norm.pdf(x), -8, 8)
    assert abs(observed - expected) < 0.01

    accepts = 0
    m = 20000
    for i in range(m):
        x, y = t1.record(np.array([xs[i]])), t2.record(np.array([ys[i]]))
        accepts += standard_swap_core(t1.value(x)[0], t2.value(y)[0],
                                      t1.value(y)[0], t2.value(x)[0],
                                      np.log(rng.random()))
    assert abs(accepts / m - expected) < 0.015


def test_mixture_propose_single_mode_moments():
    reg = ModeRegistry(dim=2, tol=1e-12)
    mu = np.array([1.0, -2.0])
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    reg, _ = try_insert(reg, make_mode_info(mu, sigma, 0.0))
    snap = reg.snapshot()
    rng = np.random.default_rng(4)
    draws = mixture_propose(snap, 1.0, 100000, rng)
    se_mean = np.sqrt(np.diag(sigma) / len(draws))
    np.testing.assert_array_less(np.abs(draws.mean(axis=0) - mu), 3 * se_mean)
    np.testing.assert_allclose(np.cov(draws.T), sigma, atol=0.03)


def test_mixture_propose_tempered_scale():
    reg = ModeRegistry(dim=1, tol=1e-12)
    reg, _ = try_insert(reg, make_mode_info(np.zeros(1), np.eye(1), 0.0))
    snap = reg.snapshot()
    rng = np.random.default_rng(5)
    beta = 16.0
    draws = mixture_propose(snap, beta, 20000, rng)
    assert abs(draws.var() - 1.0 / beta) < 0.005


def test_mixture_log_density_well_separated():
    snap = two_mode_snapshot()
    # registered weights are (2/3, 1/3); at y = 0 the far mode contributes
    # nothing beyond rounding, and at y = 10 the near one
    val = mixture_log_density(snap, 1.0,
                              snap.quad_forms(np.array([[0.0], [10.0]])))
    expected = np.log([2.0 / 3.0, 1.0 / 3.0]) - 0.5 * np.log(2.0 * np.pi)
    assert val.shape == (2,)
    np.testing.assert_allclose(val, expected, rtol=0.0, atol=1e-10)


def test_mixture_log_density_integrates_against_proposals():
    # density consistency on the mixture's own draws: finite everywhere,
    # and each row the one-point density of its point
    snap = two_mode_snapshot()
    rng = np.random.default_rng(6)
    ys = mixture_propose(snap, 4.0, 200, rng)
    vals = mixture_log_density(snap, 4.0, snap.quad_forms(ys))
    assert vals.shape == (200,) and np.all(np.isfinite(vals))
    np.testing.assert_allclose(
        vals, [reference_mixture_log_density(snap, 4.0, snap.quad_forms(y))
               for y in ys], rtol=1e-15, atol=0.0)


def test_leap_exact_gaussian_always_accepts():
    # on one Gaussian mode the HAT level is the mixture proposal itself at
    # every beta, so every leap is accepted
    rng = np.random.default_rng(7)
    mu = np.array([2.0, -1.0, 0.5])
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T + 3 * np.eye(3)
    target = gaussian_hat(mu, sigma, 256.0)
    base, snap = target.base, target.snapshot
    x = mu + 0.01 * rng.standard_normal(3)
    (x, logpi, qf), accepted = mode_leap_core(
        base, snap, 256.0, np.inf, x, base.log_density(x),
        snap.quad_forms(x), 500, rng)
    assert accepted == 500
    # the state is the last proposal, its record scored by the block
    assert logpi == base.log_density(x)
    np.testing.assert_array_equal(qf, snap.quad_forms(x))


# Two 3-d modes of unequal shape, weights 0.7 / 0.3, about 50 standard
# deviations apart: in floating point the HAT level at beta is then the
# mixture sum_j w_j N(mu_j, Sigma_j / beta), so it has exact draws.
EXACT_WEIGHTS = np.array([0.7, 0.3])
EXACT_MUS = np.array([[0.0, 0.0, 0.0], [50.0, 20.0, -10.0]])
EXACT_SIGMAS = np.array([[[1.0, 0.3, 0.0], [0.3, 0.5, 0.1], [0.0, 0.1, 0.8]],
                         [[0.4, -0.1, 0.0], [-0.1, 1.2, 0.2],
                          [0.0, 0.2, 0.6]]])
EXACT_BETA = 16.0


def exact_bound(count: int) -> float:
    """A two-sided Bonferroni bound at 1% on `count` z statistics."""
    return float(norm.ppf(1.0 - 0.01 / (2 * count)))


# 13 statistics: the first mode's share, then each mode's standardized
# coordinate means and variances
EXACT_BOUND = exact_bound(13)


def exact_target():
    return GaussianMixtureTarget(EXACT_WEIGHTS, EXACT_MUS, EXACT_SIGMAS)


def power_weights(beta: float) -> np.ndarray:
    """The weights of pi^beta, the mixture of the Sigma_j / beta: w_j^beta
    |Sigma_j|^((1 - beta) / 2), normalized."""
    raw = EXACT_WEIGHTS ** beta * np.linalg.det(EXACT_SIGMAS) ** (
        0.5 * (1.0 - beta))
    return raw / raw.sum()


def exact_draws(n: int, beta: float, weights: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """n exact draws of sum_j weights_j N(mu_j, Sigma_j / beta): the n
    component uniforms, then one (n, 3) block of z."""
    chols = np.linalg.cholesky(EXACT_SIGMAS) / np.sqrt(beta)
    j = (rng.random(n) >= weights[0]).astype(int)
    return EXACT_MUS[j] + np.matmul(chols[j],
                                    rng.standard_normal((n, 3, 1)))[..., 0]


def exact_statistics(ends: np.ndarray, beta: float,
                     weights: np.ndarray) -> np.ndarray:
    """z statistics of n states against sum_j weights_j N(mu_j, Sigma_j /
    beta): the binomial z of the first mode's share, then per mode the
    means times sqrt(n_j) and the variances' deviations from 1 over
    sqrt(2 / n_j) of the coordinates standardized by Sigma_j / beta.
    Each is about N(0, 1) when the states are exact draws."""
    n = len(ends)
    chols = np.linalg.cholesky(EXACT_SIGMAS) / np.sqrt(beta)
    mode = np.argmin(((ends[:, None] - EXACT_MUS) ** 2).sum(axis=-1), axis=1)
    w = weights[0]
    stats = [((mode == 0).mean() - w) / np.sqrt(w * (1.0 - w) / n)]
    for k in range(2):
        z = np.linalg.solve(chols[k], (ends[mode == k] - EXACT_MUS[k]).T).T
        m = len(z)
        stats += list(z.mean(axis=0) * np.sqrt(m))
        stats += list((z.var(axis=0, ddof=1) - 1.0) / np.sqrt(2.0 / m))
    return np.array(stats)


def exact_start_leap_statistics(n: int, seed: int) -> np.ndarray:
    """`exact_statistics` of n chains started at exact draws of the HAT
    level and moved by one call of V leaps each."""
    target = exact_target()
    reg = ModeRegistry(dim=3)
    for mu, sigma in zip(EXACT_MUS, EXACT_SIGMAS):
        reg, _ = try_insert(reg, make_mode_info(mu, sigma,
                                                target.log_density(mu)))
    snap = reg.snapshot()
    rng = np.random.default_rng(seed)
    starts = exact_draws(n, EXACT_BETA, EXACT_WEIGHTS, rng)
    ends = np.array([mode_leap_core(
        target, snap, EXACT_BETA, np.inf, x, target.log_density(x),
        snap.quad_forms(x), V, rng)[0][0] for x in starts])
    return exact_statistics(ends, EXACT_BETA, EXACT_WEIGHTS)


def test_leaps_from_exact_draws_keep_the_hat_level():
    # the leap is an independence sampler that leaves the level
    # invariant, so chains started at exact draws end at exact draws
    stats = exact_start_leap_statistics(4000, seed=19)
    assert np.all(np.abs(stats) < EXACT_BOUND), stats


def test_a_leap_without_its_proposal_density_fails_the_exact_start_check(
        monkeypatch):
    # a leap that drops log q(x) - log q(y) from its ratio samples
    # pi * q, here the level squared, with half its variances
    monkeypatch.setattr(kernels, "mixture_log_density",
                        lambda snapshot, beta, qf: np.zeros(len(qf)))
    stats = exact_start_leap_statistics(4000, seed=19)
    assert np.any(np.abs(stats) > EXACT_BOUND), stats


def exact_run(betas: np.ndarray, hat: bool, seed: int) -> runner._Run:
    """A run whose N chains are the rows of its block, at the levels
    betas; sweep 0 is past the freeze, so nothing is tuned, and the
    registry holds the two modes."""
    config = RunConfig.from_dict({
        "target": {"name": "gaussian_mixture"}, "ladder": {"betas": [1.0]},
        "seed": seed, "exploration": None, "burnin_samples": 0,
        "total_target_samples": V, "initial_modes": EXACT_MUS.tolist()})
    return runner._Run(config, exact_target(), betas, hat=hat)


def acceptance(run: runner._Run) -> float:
    accepts, proposals = np.sum(list(run.diag.counters.values()), axis=0)
    return accepts / proposals


def exact_start_rwm_statistics(n: int, seed: int):
    """`exact_statistics` of n chains of one run at the HAT level at
    EXACT_BETA, started at exact draws and moved by one RWM phase, V
    steps each; and the phase's acceptance rate."""
    run = exact_run(np.full(n, EXACT_BETA), hat=True, seed=seed)
    X = exact_draws(n, EXACT_BETA, EXACT_WEIGHTS, np.random.default_rng(seed))
    run.X[:], run.logpi[:] = X, run.target.log_density_batch(X)
    run.qf[:] = run.snapshot.quad_forms(X)
    runner._rwm_phase(run, 0)
    return exact_statistics(run.X, EXACT_BETA, EXACT_WEIGHTS), acceptance(run)


def test_rwm_phase_from_exact_draws_keeps_the_hat_level():
    # every row of the block is a chain at the same HAT level, which is
    # the exact mixture at EXACT_BETA; mode-local steps with their
    # Hastings terms keep it
    stats, rate = exact_start_rwm_statistics(4000, seed=23)
    assert np.all(np.abs(stats) < EXACT_BOUND), stats
    assert 0.2 < rate < 0.5


def test_an_always_accepting_rwm_fails_the_exact_start_check(monkeypatch):
    monkeypatch.setattr(runner, "rwm_core_alloc",
                        lambda x, *_: np.ones(len(x), dtype=bool))
    stats, rate = exact_start_rwm_statistics(4000, seed=23)
    assert rate == 1.0
    assert np.any(np.abs(stats) > EXACT_BOUND), stats


# the rows' betas of the swap check: mirrored, so the even pairs (1, 0.5)
# and (0.5, 1) and the odd pairs (0.5, 0.5) and (1, 1) do not undo each
# other's exchanges
SWAP_BETAS = (1.0, 0.5, 0.5, 1.0)


def exact_start_swap_statistics(n: int, seed: int):
    """`exact_statistics` at beta 1 and at beta 0.5 of the chains of one
    PT run whose rows sit at the mirrored betas SWAP_BETAS, started at
    exact draws of pi^beta and moved by one swap phase; and the phase's
    acceptance rate."""
    betas = np.tile(SWAP_BETAS, n // 4)
    run = exact_run(betas, hat=False, seed=seed)
    rng = np.random.default_rng(seed)
    for beta in (1.0, 0.5):
        run.X[betas == beta] = exact_draws(n // 2, beta, power_weights(beta),
                                           rng)
    run.logpi[:] = run.target.log_density_batch(run.X)
    runner._swap_phase(run, 0)
    stats = np.concatenate([
        exact_statistics(run.X[betas == beta], beta, power_weights(beta))
        for beta in (1.0, 0.5)])
    return stats, acceptance(run)


def test_standard_swaps_from_exact_draws_keep_every_level():
    # for modes this far apart pi^beta is the mixture of the Sigma_j /
    # beta at the weights `power_weights`.  The QuanTA swap has no such
    # check: on these exactly Gaussian modes it accepts every swap, so a
    # mispriced one would pass
    stats, rate = exact_start_swap_statistics(4000, seed=29)
    assert np.all(np.abs(stats) < exact_bound(26)), stats
    assert 0.5 < rate < 0.95


def test_a_swap_priced_at_its_own_values_fails_the_exact_start_check(
        monkeypatch):
    # cross values equal to the chains' own: every swap is accepted
    monkeypatch.setattr(
        runner, "standard_swap_core",
        lambda logp_k, logp_k1, cross_k, cross_k1, log_u:
        standard_swap_core(logp_k, logp_k1, logp_k, logp_k1, log_u))
    stats, rate = exact_start_swap_statistics(4000, seed=29)
    assert rate == 1.0
    assert np.any(np.abs(stats) > exact_bound(26)), stats


def test_quanta_is_exact_across_widely_spaced_betas():
    # one Gaussian mode registered with its exact mean and covariance:
    # every HAT level's value is log pi(mu) - beta qf / 2, and QuanTA
    # carries a state's qf / beta to the other level, so every exchange
    # has log ratio 0 and is accepted, however far apart the betas
    mu = np.array([1.0, -2.0, 0.5])
    a = np.array([[2.0, 0.0, 0.0], [0.6, 0.3, 0.0], [-1.0, 0.2, 1.5]])
    base = GaussianTarget(mu, a @ a.T)
    reg, _ = try_insert(ModeRegistry(dim=3), make_mode_info(
        mu, a @ a.T, base.log_density(mu)))
    snap = reg.snapshot()
    betas = np.array([1.0, 64.0, 4096.0, 2.0 ** 18])
    levels = [Level(base, beta, snap) for beta in betas]
    rng = np.random.default_rng(4)
    for _ in range(50):
        x = mu + (a @ rng.standard_normal((3, 4))).T / np.sqrt(betas)[:, None]
        logp = np.array([level.value(level.record(row))[0]
                         for level, row in zip(levels, x)])
        for lower in ([0, 2], [1]):  # the even parity block, then the odd
            lo = np.array(lower)
            dest, chains = np.r_[lo, lo + 1], np.r_[lo + 1, lo]
            _, logpi_y, qf_y = quanta_swap_core(
                base, snap, x[chains], np.zeros(chains.size, dtype=int),
                betas[chains], betas[dest])
            logp_y, a_y = level_values(snap, betas[dest], logpi_y, qf_y,
                                       np.full(dest.size, np.inf))
            m = lo.size
            assert np.all(a_y == 0)
            assert np.all(standard_swap_core(logp[lo], logp[lo + 1],
                                             logp_y[:m], logp_y[m:],
                                             np.full(m, -1e-9)))
            log_ratio = (logp_y[:m] + logp_y[m:]) - (logp[lo] + logp[lo + 1])
            assert np.all(np.abs(log_ratio) < 1e-9)
