from types import SimpleNamespace

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import norm

from alps import kernels, runner
from alps.config import RunConfig
from alps.density import TargetDensity
from alps.diagnostics import SWAP_QUANTA
from alps.hat import Level, level_values
from alps.kernels import (mixture_log_density, mixture_propose,
                          mode_leap_core, quanta_swap_core, quanta_transform,
                          rwm_core, rwm_decide, standard_swap_core)
from alps.registry import ModeRegistry, make_mode_info, try_insert
from alps.targets.gaussian import GaussianTarget


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
        TargetDensity(1, lambda x: 0.0 if abs(x[0]) < 1 else -np.inf), 1.0)
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
        diff = y - x
        fwd = kernels._proposal_log_density(diff, snapshot.chols[a_x],
                                            snapshot.log_dets[a_x], scale)
        rev = kernels._proposal_log_density(-diff, snapshot.chols[a_y],
                                            snapshot.log_dets[a_y], scale)
        log_ratio += rev - fwd
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
    proposal_log_density = kernels._proposal_log_density
    monkeypatch.setattr(kernels, "_proposal_log_density",
                        lambda *a: corrections.append(None)
                        or proposal_log_density(*a))
    got = rwm_decide(x, logp_x, a_x, y, np.log(u), logp_y, a_y, snapshot,
                     scale)
    flipped = (a_y != a_x) & np.isfinite(logp_y)
    assert len(corrections) == 2 * flipped.sum() > 0
    assert (a_y != a_x)[~np.isfinite(logp_y)].any()
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

    class Mix(TargetDensity):
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
    snap, (t_k, t_k1) = run.snapshot, run.level_targets
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
                 - (t_k.value(run.record(0))[0]
                    + t_k1.value(run.record(1))[0]))
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
    base = TargetDensity(
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
    base = TargetDensity(1, lambda x: -0.5 * float(x @ x))
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
    # nothing beyond rounding
    val = mixture_log_density(snap, 1.0, snap.quad_forms(np.array([0.0])))
    expected = np.log(2.0 / 3.0) - 0.5 * np.log(2.0 * np.pi)
    assert abs(val - expected) < 1e-10
    val1 = mixture_log_density(snap, 1.0, snap.quad_forms(np.array([10.0])))
    expected1 = np.log(1.0 / 3.0) - 0.5 * np.log(2.0 * np.pi)
    assert abs(val1 - expected1) < 1e-10


def test_mixture_log_density_integrates_against_proposals():
    # density consistency: empirical mean of exp(log q) weights is finite
    snap = two_mode_snapshot()
    rng = np.random.default_rng(6)
    ys = mixture_propose(snap, 4.0, 200, rng)
    vals = np.array([mixture_log_density(snap, 4.0, snap.quad_forms(y))
                     for y in ys])
    assert np.all(np.isfinite(vals))


def test_leap_exact_gaussian_always_accepts():
    # on one Gaussian mode the HAT level is the mixture proposal itself at
    # every beta, so every leap is accepted
    rng = np.random.default_rng(7)
    mu = np.array([2.0, -1.0, 0.5])
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T + 3 * np.eye(3)
    target = gaussian_hat(mu, sigma, 256.0)
    x = target.record(mu + 0.01 * rng.standard_normal(3))
    rec, accepted = mode_leap_core(x, target, 500, rng)
    assert accepted == 500
    # the state is the last proposal, its record scored by the block
    assert rec.logpi == target.base.log_density(rec.x)
    np.testing.assert_array_equal(rec.qf, target.snapshot.quad_forms(rec.x))


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
