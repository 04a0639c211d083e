import numpy as np
from scipy.integrate import quad
from scipy.stats import norm

from alps.density import TargetDensity
from alps.hat import Level
from alps.kernels import (LEAP, LOCAL, leap_log_ratio,
                          mixture_log_density, mixture_propose,
                          mode_leap_core, quanta_swap_core, quanta_transform,
                          rwm_core, standard_swap_core)
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


def two_mode_snapshot():
    reg = ModeRegistry(dim=1, tol=1e-12)
    reg, _ = try_insert(reg, make_mode_info(np.array([0.0]), np.eye(1),
                                            np.log(2.0)))
    reg, _ = try_insert(reg, make_mode_info(np.array([10.0]), np.eye(1), 0.0))
    return reg.snapshot()


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
    # 1-d N(0,1) with step 2.4: long-run acceptance about 0.44
    target = gaussian_hat([0.0], [[1.0]], 1.0)
    rng = np.random.default_rng(0)
    rec = target.record(np.zeros(1))
    logp = target.value(rec)[0]
    accepts = 0
    n = 100000
    for _ in range(n):
        rec, logp, acc = rwm_core(rec, logp, target, 2.4, rng)
        accepts += acc
    assert abs(accepts / n - 0.44) < 0.03


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
    x_k, x_k1 = t_k.record(snap.mus[0]), t_k1.record(snap.mus[1])
    res = quanta_swap_core(x_k, x_k1, t_k.value(x_k)[0],
                           t_k1.value(x_k1)[0], t_k, t_k1, 0.999999)
    assert res.accepted
    assert abs(res.log_ratio) < 1e-10
    np.testing.assert_allclose(res.low.x, snap.mus[1], atol=1e-12)
    np.testing.assert_allclose(res.high.x, snap.mus[0], atol=1e-12)


def test_quanta_equals_standard_at_equal_betas():
    snap = two_mode_snapshot()
    base = GaussianTarget(np.zeros(1), np.eye(1))
    t_a = Level(base, 4.0, snap)
    t_b = Level(base, 4.0, snap)
    rng = np.random.default_rng(2)
    for _ in range(50):
        x_k = t_a.record(rng.standard_normal(1))
        x_k1 = t_b.record(rng.standard_normal(1) + 10.0)
        lq = quanta_swap_core(x_k, x_k1, t_a.value(x_k)[0],
                              t_b.value(x_k1)[0], t_a, t_b, 0.5).log_ratio
        ls = standard_swap_core(x_k, x_k1, t_a.value(x_k)[0],
                                t_b.value(x_k1)[0], t_a, t_b, 0.5).log_ratio
        assert abs(lq - ls) < 1e-10


def test_standard_swap_trivial_accepts():
    snap = two_mode_snapshot()
    base = GaussianTarget(np.zeros(1), np.eye(1))
    t_a = Level(base, 1.0, snap)
    t_b = Level(base, 4.0, snap)
    x = t_a.record(np.array([0.3]))
    res = standard_swap_core(x, x, t_a.value(x)[0], t_b.value(x)[0], t_a, t_b,
                             0.999999)
    assert res.accepted and abs(res.log_ratio) < 1e-14


def test_standard_swap_with_carried_logpi_is_exact():
    # pricing a swap from the carried records gives the result of
    # evaluating both states at the other level bit for bit, also where
    # pi vanishes (x[0] < -1)
    base = TargetDensity(
        2, lambda x: -0.5 * float(x @ x) if x[0] > -1.0 else -np.inf)
    rng = np.random.default_rng(11)
    for _ in range(500):
        t_k, t_k1 = (Level(base, b) for b in rng.uniform(0.01, 1.0, 2))
        x_k, x_k1 = rng.normal(0.0, 2.0, (2, 2))
        rec_k, rec_k1 = t_k.record(x_k), t_k1.record(x_k1)
        lp_k, lp_k1 = t_k.log_density(x_k), t_k1.log_density(x_k1)
        u = rng.random()
        got = standard_swap_core(rec_k, rec_k1, lp_k, lp_k1, t_k, t_k1, u)
        cross = (t_k.log_density(x_k1), t_k1.log_density(x_k))
        log_ratio = (cross[0] + cross[1]) - (lp_k + lp_k1)
        accepted = bool(np.log(u) < log_ratio)
        assert got.accepted == accepted
        expected = {"log_ratio": log_ratio,
                    "logp_low": cross[0] if accepted else lp_k,
                    "logp_high": cross[1] if accepted else lp_k1}
        for name, value in expected.items():
            assert (np.float64(getattr(got, name)).tobytes()
                    == np.float64(value).tobytes())
        low, high = (rec_k1, rec_k) if accepted else (rec_k, rec_k1)
        assert got.low is low and got.high is high


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
        res = standard_swap_core(x, y, t1.value(x)[0], t2.value(y)[0],
                                 t1, t2, rng.random())
        accepts += res.accepted
    assert abs(accepts / m - expected) < 0.015


def test_mixture_propose_single_mode_moments():
    reg = ModeRegistry(dim=2, tol=1e-12)
    mu = np.array([1.0, -2.0])
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    reg, _ = try_insert(reg, make_mode_info(mu, sigma, 0.0))
    snap = reg.snapshot()
    rng = np.random.default_rng(4)
    draws = np.array([mixture_propose(snap, 1.0, rng) for _ in range(100000)])
    se_mean = np.sqrt(np.diag(sigma) / len(draws))
    np.testing.assert_array_less(np.abs(draws.mean(axis=0) - mu), 3 * se_mean)
    np.testing.assert_allclose(np.cov(draws.T), sigma, atol=0.03)


def test_mixture_propose_tempered_scale():
    reg = ModeRegistry(dim=1, tol=1e-12)
    reg, _ = try_insert(reg, make_mode_info(np.zeros(1), np.eye(1), 0.0))
    snap = reg.snapshot()
    rng = np.random.default_rng(5)
    beta = 16.0
    draws = np.array([mixture_propose(snap, beta, rng) for _ in range(20000)])
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
    ys = np.array([mixture_propose(snap, 4.0, rng) for _ in range(200)])
    vals = np.array([mixture_log_density(snap, 4.0, snap.quad_forms(y))
                     for y in ys])
    assert np.all(np.isfinite(vals))


def test_leap_self_proposal_ratio_zero():
    target = gaussian_hat([0.0, 0.0], np.eye(2), 64.0)
    x = target.record(np.array([0.1, -0.2]))
    logp = target.value(x)[0]
    assert leap_log_ratio(x, x, target, logp, logp) == 0.0


def test_leap_exact_gaussian_always_accepts():
    rng = np.random.default_rng(7)
    mu = np.array([2.0, -1.0, 0.5])
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T + 3 * np.eye(3)
    target = gaussian_hat(mu, sigma, 256.0)
    x = target.record(mu + 0.01 * rng.standard_normal(3))
    logp = target.value(x)[0]
    leaps = 0
    for _ in range(500):
        x_new, logp_new, move, acc = mode_leap_core(
            x, logp, target, 0.05, rng)
        if move == LEAP:
            leaps += 1
            assert acc
            ratio = leap_log_ratio(x, x_new, target, logp, logp_new)
            assert abs(ratio) < 1e-8
        x, logp = x_new, logp_new
    assert leaps > 150


def test_mode_leap_move_type_split():
    target = gaussian_hat([0.0], [[1.0]], 16.0)
    rng = np.random.default_rng(8)
    moves = {LEAP: 0, LOCAL: 0}
    x = target.record(np.zeros(1))
    logp = target.value(x)[0]
    for _ in range(2000):
        x, logp, move, _ = mode_leap_core(x, logp, target, 0.5, rng)
        moves[move] += 1
    assert abs(moves[LEAP] / 2000 - 0.5) < 0.05
