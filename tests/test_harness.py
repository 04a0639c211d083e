import hashlib
import json
import logging
import os
import re
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from scipy import stats

from alps import cli, exploration, kernels, runner
from alps.cli import main
from alps.config import ConfigError, RunConfig
from alps.density import TargetDensity
from alps.diagnostics import (HOT, LEAP, LEAP_LOCAL, RWM, SWAP_QUANTA,
                              SWAP_STANDARD, running_prob_estimate)
from alps.hat import Level, chi2_quantile
from alps.kernels import standard_swap_core
from alps.optimize import local_optimize
from alps.outputs import emit_outputs
from alps.registry import (IndefiniteHessianError, ModeRegistry,
                           RegistrySnapshot, covariance_from_hessian,
                           make_mode_info, try_insert)
from alps.runner import _swap_schedule, alps_run, lais_run, pt_run
from alps.targets.gaussian import GaussianMixtureTarget, GaussianTarget
from alps.targets.product import IidProductTarget, SkewShape

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "src")


def proposals(diag, move):
    return sum(n for (mv, _), (a, n) in diag.counters.items() if mv == move)


def gaussian_config(**over):
    base = {
        "target": {"name": "gaussian"},
        "ladder": {"betas": [1.0, 4.0]},
        "seed": 0,
        "v": 5,
        "total_target_samples": 20000,
        "burnin_samples": 1000,
        "exploration": None,
        "initial_modes": [[0.0]],
        "rwm": {"step_scale": 2.4, "tune": True},
    }
    base.update(over)
    return RunConfig.from_dict(base)


def test_alps_run_unimodal_moments():
    cfg = gaussian_config()
    target = GaussianTarget(np.zeros(1), np.eye(1))
    samples, diag = alps_run(cfg, target)
    assert samples.shape == (20000, 1)
    post = samples[1000:, 0]
    assert abs(np.mean(post)) < 0.05
    assert 0.9 < np.var(post) < 1.1
    assert diag.n_sweeps == cfg.n_sweeps == 4000


def test_alps_run_single_level_distribution():
    # one level at unit temperature on an exact Gaussian: the leap
    # proposal equals the target, so samples follow it closely
    cfg = gaussian_config(ladder={"betas": [1.0]})
    target = GaussianTarget(np.zeros(1), np.eye(1))
    samples, diag = alps_run(cfg, target)
    accepts, proposed = diag.counters[(LEAP, 0)]
    assert proposed > 0 and accepts == proposed
    thinned = samples[1000::10, 0]
    stat = stats.kstest(thinned, "norm").statistic
    assert stat < 1.63 / np.sqrt(thinned.size)


def test_alps_run_counter_identities():
    cfg = gaussian_config(total_target_samples=1000, burnin_samples=100)
    target = GaussianTarget(np.zeros(1), np.eye(1))
    samples, diag = alps_run(cfg, target)
    t = diag.n_sweeps
    def totals(move):
        return sum(n for (mv, _), (a, n) in diag.counters.items() if mv == move)
    assert totals(RWM) == cfg.v * t
    assert totals(LEAP) + totals(LEAP_LOCAL) == cfg.v * t
    assert totals(SWAP_QUANTA) + totals(SWAP_STANDARD) == cfg.n_swaps * t
    assert len(diag.mode_visits_level0) == t
    assert len(diag.mode_visits_top) == t
    assert len(samples) == 1000


def test_alps_run_is_deterministic():
    target = GaussianTarget(np.zeros(1), np.eye(1))
    a, _ = alps_run(gaussian_config(total_target_samples=2000), target)
    b, _ = alps_run(gaussian_config(total_target_samples=2000), target)
    np.testing.assert_array_equal(a, b)


def test_alps_run_even_odd_strategy():
    cfg = gaussian_config(total_target_samples=500,
                          ladder={"betas": [1.0, 4.0, 16.0]},
                          swap_strategy="even_odd")
    target = GaussianTarget(np.zeros(1), np.eye(1))
    _, diag = alps_run(cfg, target)
    swaps = sum(n for (mv, _), (a, n) in diag.counters.items()
                if mv in (SWAP_QUANTA, SWAP_STANDARD))
    assert swaps == 2 * diag.n_sweeps


def test_alps_run_ladder_validation():
    target = GaussianTarget(np.zeros(1), np.eye(1))
    with pytest.raises(ConfigError):
        alps_run(gaussian_config(ladder={"betas": [1.0, 0.5]}), target)
    with pytest.raises(ConfigError):
        alps_run(gaussian_config(ladder={"betas": [2.0, 4.0]}), target)


def test_alps_run_requires_modes_or_exploration():
    cfg = gaussian_config(initial_modes=None)
    target = GaussianTarget(np.zeros(1), np.eye(1))
    with pytest.raises(ValueError, match="no modes discovered"):
        alps_run(cfg, target)


def test_cli_no_modes_without_exploration_is_config_error(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "target": {"name": "gaussian", "params": {"mu": [0.0],
                                                  "sigma": [[1.0]]}},
        "ladder": {"betas": [1.0, 4.0]}, "seed": 0, "exploration": None,
        "total_target_samples": 10}))
    assert main(["run", "--config", str(path)]) == 2
    assert "config error: no modes discovered" in capsys.readouterr().err


@pytest.mark.parametrize("override, message", [
    ({"ladder": {"betas": [1.0, 0.5], "beta_hot": 2.0}}, "beta_hot"),
    ({"rwm": {"tune_target": 5.0}}, "rwm: unknown key(s) ['tune_target']"),
    ({"rwm": {"step_scale": 0}}, "step_scale"),
    ({"rwm": {"step_scale": [1.0, -2.0]}}, "step_scale"),
    ({"rwm": {"hastings": "corrected"}}, "rwm: unknown key"),
    ({"truncation": {"level": "high"}}, "truncation"),
    ({"target": {"name": "iid_product_skew",
                 "params": {"dim": 1, "alpah": 10.0}}}, "alpah"),
    ({"freeze_sweep": -3}, "config: unknown key(s) ['freeze_sweep']"),
    ({"rwm": {"step_scale": True}}, "rwm.step_scale must be a number"),
    ({"swap_quanta_prob": True}, "swap_quanta_prob must be a number"),
    ({"ladder": {"betas": [True, 0.5]}}, "ladder.betas must be a number"),
    # Python's json reads NaN and Infinity
    ({"ladder": {"betas": [1.0, float("nan")]}}, "ladder.betas must be finite"),
    ({"ladder": {"betas": [1.0, float("inf")]}}, "ladder.betas must be finite"),
    ({"exploration": {"step_scale": float("nan")}},
     "exploration.step_scale must be finite"),
    ({"rwm": {"step_scale": float("inf")}}, "rwm.step_scale must be finite"),
    ({"running_threshold": float("nan")}, "running_threshold must be finite"),
    ({"init": "abc"}, "init is not a point"),
    ({"init": [float("inf")]}, "init must be finite"),
    ({"initial_modes": [["a"]]}, "initial_modes[0] is not a point"),
    ({"initial_modes": 5}, "initial_modes must be a list of points"),
    ({"initial_modes": [[0.0], [float("nan")]]},
     "initial_modes[1] must be finite"),
    # presence of the section is the switch
    ({"truncation": {"enabled": True}},
     "truncation: unknown key(s) ['enabled']"),
    ({"exploration": {"enabled": True}},
     "exploration: unknown key(s) ['enabled']"),
    # a mandatory section rejects null
    ({"rwm": None}, "rwm: expected an object, got NoneType"),
    # fixed or derived values are not settings
    ({"s": 1.5}, "config: unknown key(s) ['s']"),
    ({"s": True}, "config: unknown key(s) ['s']"),
    ({"thinning": False}, "config: unknown key(s) ['thinning']"),
    ({"freeze_sweep": 2.5}, "config: unknown key(s) ['freeze_sweep']"),
    ({"registry_tol": 0.5}, "config: unknown key(s) ['registry_tol']"),
])
def test_cli_bad_settings_are_config_errors(tmp_path, capsys, override,
                                            message):
    config = {
        "target": {"name": "gaussian", "params": {"mu": [0.0],
                                                  "sigma": [[1.0]]}},
        "ladder": {"betas": [1.0, 0.5]}, "seed": 0, "exploration": None,
        "total_target_samples": 10, **override}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["pt", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and message in err


@pytest.mark.parametrize("key, value", [
    ("v", 2.5), ("v", True),
    ("total_target_samples", 10.5), ("burnin_samples", 2.0), ("v", "5"),
    ("exploration.n_hot_chains", 1.5), ("exploration.n_hot_chains", True),
    ("exploration.max_bootstrap_attempts", 2.5),
    ("seed", 1.7), ("seed", True), ("seed", "3"),
])
def test_cli_integer_settings_reject_floats_and_bools(tmp_path, capsys, key,
                                                      value):
    # these settings size ranges and draws: a float or bool used to pass
    # validation and end in a bare TypeError once the run started
    section, _, name = key.rpartition(".")
    config = {
        "target": {"name": "gaussian", "params": {"mu": [0.0],
                                                  "sigma": [[1.0]]}},
        "ladder": {"betas": [1.0, 0.5], "beta_hot": 0.1}, "seed": 0,
        "total_target_samples": 10,
        **({section: {name: value}} if section else {name: value})}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 2
    assert capsys.readouterr().err == f"config error: {key} must be an integer\n"


@pytest.mark.parametrize("run_fn, betas, truncation", [
    (alps_run, [1.0, 2.0, 6.0], {"level": 0.99}),
    (alps_run, [1.0, 2.0, 6.0], None),
    (pt_run, [1.0, 0.5], {"level": 0.99}),
], ids=["alps-truncated", "alps", "pt"])
def test_build_levels_truncates_exactly_the_levels_above_one(run_fn, betas,
                                                             truncation):
    target = GaussianMixtureTarget([0.6, 0.4], [[0.0, 0.0], [3.0, 0.5]],
                                   [np.eye(2), 0.5 * np.eye(2)])
    cfg = gaussian_config(ladder={"betas": betas}, truncation=truncation,
                          initial_modes=[[0.0, 0.0]],
                          rwm={"step_scale": 1.0})
    run = runner._Run(cfg, target, np.array(betas), hat=run_fn is alps_run)
    radius = np.inf if truncation is None else chi2_quantile(0.99, 2)
    expected = [radius if beta > 1.0 else np.inf for beta in betas]
    assert run.radii.tolist() == expected
    assert [level.radius for level in run.level_targets] == expected
    # every level shares the run's snapshot, also after a rebuild
    assert all(level.snapshot is run.snapshot for level in run.level_targets)
    if run_fn is pt_run:
        assert run.snapshot is None
        return
    run.registry, inserted = try_insert(run.registry, make_mode_info(
        np.array([3.0, 0.5]), 0.5 * np.eye(2), target.log_density([3.0, 0.5])))
    assert inserted
    run.build_levels()
    assert run.snapshot.n_modes == 2
    assert all(level.snapshot is run.snapshot for level in run.level_targets)
    assert [level.radius for level in run.level_targets] == expected


def test_alps_run_exploration_needs_hot_temperature():
    cfg = gaussian_config(exploration={})
    target = GaussianTarget(np.zeros(1), np.eye(1))
    with pytest.raises(ConfigError, match="beta_hot"):
        alps_run(cfg, target)


def test_alps_run_init_shape_checked():
    cfg = gaussian_config(init=[0.0, 0.0])
    target = GaussianTarget(np.zeros(1), np.eye(1))
    with pytest.raises(ConfigError, match="init"):
        alps_run(cfg, target)
    cfg = gaussian_config(initial_modes=[[0.0], [1.0, 2.0, 3.0]])
    with pytest.raises(ConfigError, match=re.escape(
            "initial_modes[1] has shape (3,), expected (1,)")):
        alps_run(cfg, target)


def test_alps_run_skipped_initial_mode_logs_warning(caplog):
    # the ascent from 10 climbs the linear branch without converging
    target = TargetDensity(
        1, lambda x: float(-x[0] ** 2 if x[0] < 5.0 else x[0] - 30.0),
        gradient=lambda x: np.array([-2.0 * x[0] if x[0] < 5.0 else 1.0]))
    cfg = gaussian_config(initial_modes=[[0.5], [10.0]],
                          total_target_samples=50, burnin_samples=0)
    with caplog.at_level(logging.WARNING, logger="alps.runner"):
        _, diag = alps_run(cfg, target)
    assert diag.registry.n_modes == 1
    assert "initial_modes[1]: ascent did not converge; skipped" in caplog.text


def test_pt_run_moments_and_ladder_validation():
    target = GaussianTarget(np.zeros(1), np.eye(1))
    cfg = gaussian_config(ladder={"betas": [1.0, 0.36]},
                          rwm={"step_scale": [2.4, 4.0], "tune": True},
                          initial_modes=None)
    samples, diag = pt_run(cfg, target)
    post = samples[1000:, 0]
    assert abs(np.mean(post)) < 0.06
    assert 0.9 < np.var(post) < 1.1
    assert diag.mode_visits_level0 == []  # no component locations known
    with pytest.raises(ConfigError):
        pt_run(gaussian_config(ladder={"betas": [1.0, 4.0]},
                               initial_modes=None), target)


def pt_config(**over):
    return gaussian_config(ladder={"betas": [1.0, 0.36, 0.1]},
                           rwm={"step_scale": [2.4, 4.0, 7.0], "tune": True},
                           initial_modes=None, **over)


def test_pt_run_counter_identities():
    cfg = pt_config(total_target_samples=1000, burnin_samples=100)
    target = GaussianTarget(np.zeros(1), np.eye(1))
    target.component_locations = np.array([[-1.0], [2.0]])
    samples, diag = pt_run(cfg, target)
    t = diag.n_sweeps
    assert proposals(diag, RWM) == cfg.v * t * 3
    assert proposals(diag, SWAP_STANDARD) == cfg.n_swaps * t
    assert proposals(diag, SWAP_QUANTA) == 0
    assert len(diag.mode_visits_level0) == len(diag.mode_visits_top) == t
    assert set(diag.mode_visits_level0) <= {0, 1}
    assert len(diag.tuned_step_scales) == 3
    assert diag.registry is None
    assert len(samples) == 1000


def test_pt_run_swaps_evaluate_no_density(monkeypatch):
    # each chain carries log pi of its state: pi is evaluated once per
    # chain at set-up and once per RWM proposal, never by a swap
    base = GaussianTarget(np.zeros(1), np.eye(1))
    calls = []
    target = TargetDensity(
        1, lambda x: calls.append(None) or base.log_density(x))
    cfg = pt_config(total_target_samples=1000, burnin_samples=100)
    samples, diag = pt_run(cfg, target)
    assert proposals(diag, SWAP_STANDARD) == cfg.n_swaps * diag.n_sweeps > 0
    carried = len(calls)
    assert carried == 3 * (1 + cfg.v * diag.n_sweeps)
    # and the run is the one that prices every swap by two evaluations
    monkeypatch.setattr(
        runner, "standard_swap_core",
        lambda rec_k, rec_k1, lp_k, lp_k1, t_k, t_k1, u: standard_swap_core(
            t_k.record(rec_k.x), t_k1.record(rec_k1.x), lp_k, lp_k1, t_k,
            t_k1, u))
    evaluated, diag_evaluated = pt_run(cfg, target)
    assert len(calls) - carried == carried + 2 * cfg.n_swaps * diag.n_sweeps
    np.testing.assert_array_equal(samples, evaluated)
    assert diag.counters == diag_evaluated.counters
    monkeypatch.undo()

    # on an ALPS ladder the chains carry their records too: no swap, leap
    # or mode visit evaluates pi or the quad forms at a chain's current
    # state, and standard swaps and mode visits evaluate nothing at all
    run_fn, cfg, target = two_mode_alps_case()
    points = []
    log_density, quad_forms = target.log_density, RegistrySnapshot.quad_forms
    monkeypatch.setattr(target, "log_density", lambda x: points.append(
        np.array(x)) or log_density(x))
    monkeypatch.setattr(RegistrySnapshot, "quad_forms", lambda snap, x: (
        points.append(np.array(x)) or quad_forms(snap, x)))
    calls = {}

    def watched(name, current, evaluates):
        kernel = getattr(runner, name)

        def wrapped(*args):
            start = len(points)
            out = kernel(*args)
            new = points[start:]
            assert evaluates or not new, name
            assert not any(np.array_equal(p, x) for p in new
                           for x in current(*args)), name
            calls[name] = calls.get(name, 0) + 1
            return out
        monkeypatch.setattr(runner, name, wrapped)

    watched("standard_swap_core", lambda a, b, *_: (a.x, b.x), False)
    watched("quanta_swap_core", lambda a, b, *_: (a.x, b.x), True)
    watched("mode_leap_core", lambda a, *_: (a.x,), True)
    watched("_hat_visits", lambda run, t: (run.states[0].x,
                                           run.states[run.n].x), False)
    run_fn(cfg, target)
    assert min(calls.values()) > 0 and len(calls) == 4


def reference_rwm_core_alloc(x, logp_x, target, step_scale, rng, a_x=None):
    """One RWM step as a single function: draw, evaluate, then decide."""
    z = rng.standard_normal(x.shape[0])
    u = rng.random()
    snapshot = getattr(target, "snapshot", None)
    if snapshot is None:
        y = x + step_scale * z
        value_and_base = getattr(target, "value_and_base", None)
        if value_and_base is None:
            logp_y, a_y = target.log_density(y), None
        else:
            logp_y, a_y = value_and_base(y)
        if kernels._accept(logp_y - logp_x, u):
            return y, logp_y, a_y, True
        return x, logp_x, a_x, False
    if a_x is None:
        a_x = target.allocate_index(x)
    scale = step_scale / np.sqrt(target.beta)
    y = x + scale * (snapshot.chols[a_x] @ z)
    logp_y, a_y = target.value_and_alloc(y)
    log_ratio = logp_y - logp_x
    if a_y != a_x and np.isfinite(logp_y):
        diff = y - x
        fwd = kernels._proposal_log_density(diff, snapshot.chols[a_x],
                                            snapshot.log_dets[a_x], scale)
        rev = kernels._proposal_log_density(-diff, snapshot.chols[a_y],
                                            snapshot.log_dets[a_y], scale)
        log_ratio += rev - fwd
    if kernels._accept(log_ratio, u):
        return y, logp_y, a_y, True
    return x, logp_x, a_x, False


def reference_rwm_phase(run, t, levels):
    """The RWM phase updating one level after another, v steps each; the
    chain's record is evaluated afresh at its last state."""
    v = run.config.v
    for k in levels:
        rng = run.factory.level_stream(k, t)
        accepted = 0
        a_k = None
        x = run.states[k].x
        for _ in range(v):
            x, run.logps[k], a_k, acc = reference_rwm_core_alloc(
                x, run.logps[k], run.level_targets[k],
                run.step_scales[k], rng, a_k)
            accepted += int(acc)
            run.diag.count(RWM, k, acc)
            if k == 0:
                run.diag.record_sample(x)
        run.states[k] = run.level_targets[k].record(x)
        run.tune(k, accepted / v, t)


def two_mode_alps_case():
    target = GaussianMixtureTarget([0.6, 0.4], [[0.0, 0.0], [3.0, 0.5]],
                                   [np.eye(2), 0.5 * np.eye(2)])
    cfg = gaussian_config(ladder={"betas": [1.0, 2.0, 6.0]},
                          initial_modes=[[0.0, 0.0], [3.0, 0.5]],
                          rwm={"step_scale": [2.0, 2.0, 2.0], "tune": True},
                          truncation={"level": 0.999},
                          total_target_samples=1500, burnin_samples=500)
    return alps_run, cfg, target


def skew_pt_case():
    # a vectorized log_density_batch
    target = IidProductTarget(SkewShape(alpha=10.0), dim=5)
    cfg = pt_config(total_target_samples=1500, burnin_samples=500)
    return pt_run, cfg, target


# sha256 of the level-0 samples and of the sorted acceptance counters of
# the two cases above, recorded on x86-64 Linux (numpy 2.4, OpenBLAS):
# refactors that keep behaviour keep them.  A platform whose libm or BLAS
# rounds differently changes them.
PINNED_DIGESTS = {
    "two_mode_alps_case": (
        "268214e5a7ff4cf96315c18317e2d422cd1a74c3a27b5b65d20454d825e3f06f",
        "179897955bc02aedfe0bff6c1083668faa411d3968eb2087b120926ffa5748d0"),
    "skew_pt_case": (
        "831aa611c9e7af4c652ad84e781c6c8ac57760b265022939f06ef8e98e399c90",
        "dd3383bb67239c13e5601d1c0b8e9eed652307db06f4fc4da070dbecf2af1454"),
}


@pytest.mark.parametrize("case", [two_mode_alps_case, skew_pt_case],
                         ids=["alps-hat", "pt-batched"])
def test_fixed_seed_runs_keep_their_digests(case):
    # the ALPS case runs truncated HAT, QuanTA and standard swaps and
    # leaps; the PT case the batched power path
    run_fn, cfg, target = case()
    samples, diag = run_fn(cfg, target)
    counters = repr(sorted(diag.counters.items())).encode()
    assert (hashlib.sha256(samples.tobytes()).hexdigest(),
            hashlib.sha256(counters).hexdigest()) == PINNED_DIGESTS[
                case.__name__]


def gaussian_pt_case():
    # TargetDensity's row-by-row batch fallback
    target = GaussianTarget(np.zeros(1), np.eye(1))
    return pt_run, pt_config(total_target_samples=1500), target


@pytest.mark.parametrize("case", [two_mode_alps_case, skew_pt_case,
                                  gaussian_pt_case],
                         ids=["alps-hat", "pt-batched", "pt-loop"])
def test_lockstep_rwm_phase_equals_level_by_level_reference(monkeypatch, case):
    run_fn, cfg, target = case()
    corrections = []
    proposal_log_density = kernels._proposal_log_density
    monkeypatch.setattr(kernels, "_proposal_log_density",
                        lambda *a: corrections.append(None)
                        or proposal_log_density(*a))
    samples, diag = run_fn(cfg, target)
    lockstep_corrections = len(corrections)
    monkeypatch.setattr(runner, "_rwm_phase", reference_rwm_phase)
    ref_samples, ref_diag = run_fn(cfg, target)
    np.testing.assert_array_equal(samples, ref_samples)
    assert diag.counters == ref_diag.counters
    assert diag.tuned_step_scales == ref_diag.tuned_step_scales
    assert diag.mode_visits_level0 == ref_diag.mode_visits_level0
    assert len(corrections) == 2 * lockstep_corrections
    if run_fn is alps_run:  # the Hastings correction ran
        assert lockstep_corrections > 0


def test_alps_recovers_unequal_mode_weights():
    # HAT keeps each mode's mass at every level, so level 0 must split its
    # time 0.7 / 0.3 between two modes of unequal covariance, which it
    # reaches only through the leaps at the top level and the swaps
    weights, mus = [0.7, 0.3], [[0.0, 0.0], [10.0, 3.0]]
    sigmas = [[[1.0, 0.3], [0.3, 0.5]], [[0.4, -0.1], [-0.1, 1.2]]]
    target = GaussianMixtureTarget(weights, mus, sigmas)
    cfg = gaussian_config(ladder={"betas": [1.0, 8.0]}, initial_modes=mus,
                          init=[0.0, 0.0],
                          rwm={"step_scale": [1.7, 1.7], "tune": True},
                          total_target_samples=6000, burnin_samples=600)
    samples, _ = alps_run(cfg, target)
    in_first = samples[cfg.burnin_samples:, 0] < 5.0
    batches = in_first.reshape(30, -1).mean(axis=1)
    mcse = batches.std(ddof=1) / np.sqrt(batches.size)
    assert mcse < 0.03
    assert abs(in_first.mean() - 0.7) < 3.0 * mcse
    assert np.count_nonzero(np.diff(in_first)) > 50  # level 0 hops modes
    # a random walk at level 0 alone never leaves the first mode
    walk_cfg = gaussian_config(ladder={"betas": [1.0]}, initial_modes=None,
                               init=[0.0, 0.0], total_target_samples=3000,
                               rwm={"step_scale": 1.7, "tune": True})
    walk, _ = pt_run(walk_cfg, target)
    assert np.all(walk[:, 0] < 5.0)


class FailingBatch(TargetDensity):
    """1-d standard normal whose n-th evaluation raises, or whose batch
    call returns one value too many."""

    def __init__(self, fail_at=None, batch_extra=False):
        self.calls = 0
        self.fail_at = fail_at
        self.batch_extra = batch_extra
        super().__init__(1, self._logpdf)

    def _logpdf(self, x):
        self.calls += 1
        if self.calls == self.fail_at:
            raise ValueError("evaluation failed")
        return -0.5 * float(x @ x)

    def _log_density_rows(self, xs):
        if self.batch_extra:
            return np.zeros(len(xs) + 1)
        return super()._log_density_rows(xs)


@pytest.mark.parametrize("target, message", [
    (FailingBatch(fail_at=50), "evaluation failed"),
    (FailingBatch(batch_extra=True), r"has shape \(4,\), expected \(3,\)"),
])
def test_cli_batched_evaluation_failure_aborts_with_context(
        tmp_path, capsys, monkeypatch, target, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "target": {"name": "gaussian", "params": {"mu": [0.0],
                                                  "sigma": [[1.0]]}},
        "ladder": {"betas": [1.0, 0.5, 0.25]}, "seed": 0,
        "exploration": None, "total_target_samples": 100}))
    monkeypatch.setattr(cli, "build_target", lambda name, params: target)
    assert main(["pt", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert re.match(r"numerical abort: sweep \d+, rwm rep \d+, levels 0-2: ",
                    err), err
    assert re.search(message, err), err


def reference_quanta_swap_core(x_k, x_k1, logp_k, logp_k1, target_k,
                               target_k1, rng):
    """The QuanTA swap drawing its uniform from the generator."""
    snapshot = target_k.snapshot
    m1 = target_k.allocate_index(x_k)
    m2 = target_k1.allocate_index(x_k1)
    y_k = kernels.quanta_transform(x_k, target_k.beta, target_k1.beta,
                                   snapshot.mus[m1])
    y_k1 = kernels.quanta_transform(x_k1, target_k1.beta, target_k.beta,
                                    snapshot.mus[m2])
    u = rng.random()
    lp_yk_at_k1 = target_k1.log_density(y_k)
    lp_yk1_at_k = target_k.log_density(y_k1)
    log_ratio = (lp_yk_at_k1 + lp_yk1_at_k) - (logp_k + logp_k1)
    if kernels._accept(log_ratio, u):
        return kernels.SwapResult(True, log_ratio, y_k1, y_k, lp_yk1_at_k,
                                  lp_yk_at_k1)
    return kernels.SwapResult(False, log_ratio, x_k, x_k1, logp_k, logp_k1)


def reference_standard_swap_core(x_k, x_k1, logp_k, logp_k1, target_k,
                                 target_k1, rng, logpi=None):
    """The standard swap drawing its uniform from the generator."""
    u = rng.random()
    if logpi is None:
        lp_xk1_at_k = target_k.log_density(x_k1)
        lp_xk_at_k1 = target_k1.log_density(x_k)
    else:
        lp_xk1_at_k = target_k.beta * logpi[1]
        lp_xk_at_k1 = target_k1.beta * logpi[0]
    log_ratio = (lp_xk1_at_k + lp_xk_at_k1) - (logp_k + logp_k1)
    if kernels._accept(log_ratio, u):
        return kernels.SwapResult(True, log_ratio, x_k1, x_k, lp_xk1_at_k,
                                  lp_xk_at_k1)
    return kernels.SwapResult(False, log_ratio, x_k, x_k1, logp_k, logp_k1)


def reference_swap_phase(run, t):
    """The swap phase drawing one value at a time: each pair index, then
    per swap the coin (HAT levels) and the kernel's own uniform; the
    records of the two chains are evaluated afresh after each swap."""
    config, n = run.config, run.n
    if n < 1:
        return
    rng = run.factory.stream(runner.SWAP_STREAM, t)
    if config.swap_strategy == "uniform":
        schedule = [int(rng.integers(0, n)) for _ in range(n)]
    else:
        schedule = _swap_schedule("even_odd", n, t, None)
    states, logps = run.states, run.logps
    targets = run.level_targets
    for k in schedule:
        if run.snapshot is not None and rng.random() < config.swap_quanta_prob:
            res = reference_quanta_swap_core(
                states[k].x, states[k + 1].x, logps[k], logps[k + 1],
                targets[k], targets[k + 1], rng)
            run.diag.count(SWAP_QUANTA, k, res.accepted)
        else:
            res = reference_standard_swap_core(
                states[k].x, states[k + 1].x, logps[k], logps[k + 1],
                targets[k], targets[k + 1], rng)
            run.diag.count(SWAP_STANDARD, k, res.accepted)
        states[k] = targets[k].record(res.low)
        states[k + 1] = targets[k + 1].record(res.high)
        logps[k], logps[k + 1] = res.logp_low, res.logp_high


def located_pt_case(strategy):
    target = GaussianTarget(np.zeros(1), np.eye(1))
    target.component_locations = np.array([[-1.0], [2.0]])
    cfg = pt_config(total_target_samples=1500, burnin_samples=500,
                    swap_strategy=strategy)
    return pt_run, cfg, target


@pytest.mark.parametrize("case", [
    lambda: located_pt_case("uniform"),
    lambda: located_pt_case("even_odd"),
    two_mode_alps_case,
], ids=["pt-uniform", "pt-even-odd", "alps-hat"])
def test_batched_swap_draws_equal_sequential_reference(monkeypatch, case):
    run_fn, cfg, target = case()
    samples, diag = run_fn(cfg, target)
    monkeypatch.setattr(runner, "_swap_phase", reference_swap_phase)
    ref_samples, ref_diag = run_fn(cfg, target)
    np.testing.assert_array_equal(samples, ref_samples)
    assert diag.counters == ref_diag.counters
    assert diag.tuned_step_scales == ref_diag.tuned_step_scales
    assert diag.mode_visits_level0 == ref_diag.mode_visits_level0
    assert diag.mode_visits_top == ref_diag.mode_visits_top
    assert len(diag.mode_visits_level0) == diag.n_sweeps
    moves = [SWAP_STANDARD] + ([SWAP_QUANTA] if run_fn is alps_run else [])
    for move in moves:  # every kind of swap was accepted
        assert sum(a for (mv, _), (a, n) in diag.counters.items()
                   if mv == move) > 0


def reference_settings(config):
    """The exploration settings as the hot chain read them."""
    ec = config.exploration
    return SimpleNamespace(beta_hot=config.ladder.beta_hot, v=config.v,
                           step_scale=ec.step_scale,
                           n_hot_chains=ec.n_hot_chains,
                           refresh_from_modes=ec.refresh_from_modes)


def reference_mfind(x_hot, registry, base, cfg, rng, log_cb=None):
    """One exploration step as one function: the refresh coin, v + 1
    `hot_step` updates (two evaluations each), then the ascent, Hessian
    and insertion; returns (x_hot', registry', found_new)."""
    x_hot = np.asarray(x_hot, dtype=float)
    if cfg.refresh_from_modes > 0.0 and registry.n_modes > 0:
        if rng.random() < cfg.refresh_from_modes:
            x_hot = kernels.mixture_propose(registry.snapshot(), 1.0, rng)
    for _ in range(cfg.v + 1):
        x_hot, _ = exploration.hot_step(x_hot, cfg.beta_hot, base, rng,
                                        cfg.step_scale)
    record = {"found_new": False, "log_pi_at_mode": np.nan,
              "min_pseudo_distance": np.nan, "status": "not_converged"}
    mu, converged = local_optimize(x_hot, base)
    if not converged:
        if log_cb:
            log_cb(record)
        return x_hot, registry, False
    try:
        sigma, _, _ = covariance_from_hessian(exploration.hessian_at(base, mu))
        candidate = make_mode_info(mu, sigma, base.log_density(mu))
    except (IndefiniteHessianError, ValueError) as err:
        record.update(status="rejected", reason=str(err))
        if log_cb:
            log_cb(record)
        return x_hot, registry, False
    record["log_pi_at_mode"] = candidate.log_pi_at_mode
    record["min_pseudo_distance"] = registry.min_pseudo_distance(candidate)
    registry, inserted = try_insert(registry, candidate)
    record["found_new"] = inserted
    record["status"] = "inserted" if inserted else "duplicate"
    if log_cb:
        log_cb(record)
    return x_hot, registry, inserted


def reference_register_point_as_mode(point, target, registry):
    """Polish an initial mode and offer it to the registry."""
    mu, converged = local_optimize(np.asarray(point, dtype=float), target)
    if not converged:
        return
    try:
        sigma, _, _ = covariance_from_hessian(exploration.hessian_at(target,
                                                                     mu))
    except (ValueError, IndefiniteHessianError):
        return
    try_insert(registry, make_mode_info(mu, sigma, target.log_density(mu)))


def reference_find_modes(run, x0):
    """Initial modes, then the bootstrap; the hot chains' log densities
    are evaluated afresh after it."""
    config = run.config
    run.registry = ModeRegistry(dim=run.target.dim)
    for point in config.initial_modes or []:
        reference_register_point_as_mode(point, run.target, run.registry)
    cfg = reference_settings(config)
    run.hot_target = Level(run.target, cfg.beta_hot)
    run.hot_states = [run.hot_target.record(x0.copy())
                      for _ in range(cfg.n_hot_chains)]
    if run.registry.n_modes == 0:
        run._bootstrap(config.exploration.max_bootstrap_attempts)
    run.hot_logps = [run.hot_target.log_density(rec.x)
                     for rec in run.hot_states]


def reference_search(run, chain, sweep, iteration, rng):
    """One logged exploration step of hot chain `chain`; its record is
    evaluated afresh at the state the step reached."""
    record = {}
    x_hot, run.registry, found = reference_mfind(
        run.hot_states[chain].x, run.registry, run.target,
        reference_settings(run.config), rng, log_cb=record.update)
    run.hot_states[chain] = run.hot_target.record(x_hot)
    run.diag.discovery_log.append(
        {"sweep": sweep, "iteration": iteration, **record})
    if found:
        run.diag.registry_events.append(
            {"sweep": sweep, "version": run.registry.version,
             "n_modes": run.registry.n_modes})
    return found


def reference_exploration_phase(run, t):
    """The searching chain runs a whole exploration step and has its log
    density evaluated again; the others take v + 1 tallied steps."""
    run.stage = "exploration"
    cfg = reference_settings(run.config)
    rng = run.factory.stream(runner.EXPLORE_STREAM, t)
    n_chains = len(run.hot_states)
    active = t % n_chains if t < run.freeze else -1
    for c in range(n_chains):
        if c == active:
            reference_search(run, c, t, c, rng)
            run.hot_logps[c] = run.hot_target.log_density(
                run.hot_states[c].x)
        else:
            for _ in range(cfg.v + 1):
                run.hot_states[c], run.hot_logps[c], acc = kernels.rwm_core(
                    run.hot_states[c], run.hot_logps[c], run.hot_target,
                    cfg.step_scale, rng)
                run.diag.count(HOT, -1, acc)


def exploring_case(run_fn=alps_run, betas=(1.0, 2.0, 6.0), **over):
    target = GaussianMixtureTarget([0.6, 0.4], [[0.0, 0.0], [3.0, 0.5]],
                                   [np.eye(2), 0.5 * np.eye(2)])
    cfg = gaussian_config(
        ladder={"betas": list(betas), "beta_hot": 0.2},
        rwm={"step_scale": [2.0] * len(betas), "tune": True},
        total_target_samples=600, burnin_samples=300,
        **over)
    return run_fn, cfg, target


def explore(n_hot_chains, refresh):
    return {"step_scale": 3.0, "n_hot_chains": n_hot_chains,
            "refresh_from_modes": refresh}


@pytest.mark.parametrize("case", [
    lambda: exploring_case(initial_modes=None, exploration=explore(1, 0.0)),
    lambda: exploring_case(initial_modes=None, exploration=explore(2, 0.5)),
    lambda: exploring_case(initial_modes=[[3.0, 0.5]],
                           exploration=explore(1, 0.0)),
    lambda: exploring_case(initial_modes=[[0.0, 0.0]],
                           exploration=explore(2, 0.5)),
    lambda: exploring_case(lais_run, betas=(1.0,),
                           initial_modes=[[0.0, 0.0]],
                           exploration=explore(2, 0.5)),
], ids=["bootstrap-1-chain", "bootstrap-2-chains-refresh",
        "initial-modes-1-chain", "initial-modes-2-chains-refresh",
        "lais-2-chains-refresh"])
def test_runner_hot_chains_equal_mfind_hot_step_reference(monkeypatch, case):
    run_fn, cfg, target = case()
    samples, diag = run_fn(cfg, target)
    monkeypatch.setattr(runner._Run, "_find_modes", reference_find_modes)
    monkeypatch.setattr(runner._Run, "search", reference_search)
    monkeypatch.setattr(runner, "_exploration_phase",
                        reference_exploration_phase)
    ref_samples, ref_diag = run_fn(cfg, target)
    np.testing.assert_array_equal(samples, ref_samples)
    assert diag.counters == ref_diag.counters
    registry, ref_registry = diag.registry, ref_diag.registry
    assert registry.version == ref_registry.version
    for mode, ref_mode in zip(registry.modes, ref_registry.modes,
                              strict=True):
        np.testing.assert_array_equal(mode.mu, ref_mode.mu)
        np.testing.assert_array_equal(mode.sigma, ref_mode.sigma)
    np.testing.assert_array_equal(registry.log_weights,
                                  ref_registry.log_weights)
    assert diag.registry_events == ref_diag.registry_events
    assert repr(diag.discovery_log) == repr(ref_diag.discovery_log)
    # the case exercises what it should: both modes found, searches until
    # the freeze only, and every step of a non-searching chain tallied
    n_chains = cfg.exploration.n_hot_chains
    sweep_searches = sum(rec["sweep"] >= 0 for rec in diag.discovery_log)
    assert registry.n_modes == 2 and diag.registry_events
    assert sweep_searches == cfg.burnin_sweeps < diag.n_sweeps
    assert diag.counters[(HOT, -1)][1] == (cfg.v + 1) * (
        n_chains * diag.n_sweeps - sweep_searches)


def test_bootstrap_abort_names_budget_and_failures(tmp_path, capsys,
                                                   monkeypatch):
    # a linear log density has no mode: every ascent runs off
    target = TargetDensity(2, lambda x: float(x.sum()),
                           gradient=lambda x: np.ones(2))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "target": {"name": "gaussian"},
        "ladder": {"betas": [1.0, 4.0], "beta_hot": 0.5}, "seed": 0,
        "exploration": {"max_bootstrap_attempts": 3},
        "total_target_samples": 10}))
    monkeypatch.setattr(cli, "build_target", lambda name, params: target)
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert ("numerical abort: no modes discovered after 3 bootstrap "
            "exploration attempts: 3 ascents did not converge, 0 Hessians "
            "rejected\n") == err
    # a flat density with a positive Hessian: every ascent converges at
    # once and every Hessian is rejected
    target = TargetDensity(1, lambda x: 0.0, gradient=lambda x: np.zeros(1),
                           hessian=lambda x: np.eye(1))
    assert main(["run", "--config", str(path)]) == 3
    err = capsys.readouterr().err
    assert ("no modes discovered after 3 bootstrap exploration attempts: "
            "0 ascents did not converge, 3 Hessians rejected (last: not a "
            "local maximum / indefinite Hessian (failing pivot index 0))"
            ) in err


def test_python_dash_m_runs_the_cli():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "alps", "pt", "--help"],
                          env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: alps pt")


def test_pt_run_is_deterministic():
    target = GaussianTarget(np.zeros(1), np.eye(1))
    a, da = pt_run(pt_config(total_target_samples=2000), target)
    b, db = pt_run(pt_config(total_target_samples=2000), target)
    np.testing.assert_array_equal(a, b)
    assert da.counters == db.counters


def lais_config(**over):
    return gaussian_config(ladder={"betas": [1.0]}, **over)


def test_lais_run_counter_identities():
    cfg = lais_config(total_target_samples=1000, burnin_samples=100)
    target = GaussianTarget(np.zeros(1), np.eye(1))
    samples, diag = lais_run(cfg, target)
    t = diag.n_sweeps
    assert proposals(diag, LEAP) + proposals(diag, LEAP_LOCAL) == cfg.v * t
    assert proposals(diag, RWM) == 0
    assert proposals(diag, SWAP_QUANTA) + proposals(diag, SWAP_STANDARD) == 0
    assert len(diag.mode_visits_level0) == t
    assert diag.mode_visits_top == diag.mode_visits_level0
    assert diag.registry.n_modes == 1
    assert len(samples) == 1000


def test_lais_run_is_deterministic():
    target = GaussianTarget(np.zeros(1), np.eye(1))
    a, da = lais_run(lais_config(total_target_samples=2000), target)
    b, db = lais_run(lais_config(total_target_samples=2000), target)
    np.testing.assert_array_equal(a, b)
    assert da.counters == db.counters


def test_lais_run_is_alps_on_one_level_without_tuning():
    # LAIS differs from one-level ALPS only in tuning its leap-local step
    target = GaussianTarget(np.zeros(1), np.eye(1))
    rwm = {"step_scale": 2.4, "tune": False}
    a, da = lais_run(lais_config(total_target_samples=2000, rwm=rwm), target)
    b, db = alps_run(lais_config(total_target_samples=2000, rwm=rwm), target)
    np.testing.assert_array_equal(a, b)
    assert da.counters == db.counters
    assert da.mode_visits_top == db.mode_visits_top


def test_lais_run_single_level_only():
    target = GaussianTarget(np.zeros(1), np.eye(1))
    with pytest.raises(ConfigError, match="single level"):
        lais_run(gaussian_config(ladder={"betas": [1.0, 4.0]}), target)
    cfg = gaussian_config(ladder={"betas": [1.0]}, total_target_samples=5000)
    samples, diag = lais_run(cfg, target)
    assert samples.shape == (5000, 1)
    accepts, proposed = diag.counters[(LEAP, 0)]
    assert proposed > 0 and accepts == proposed
    post = samples[1000:, 0]
    assert abs(np.mean(post)) < 0.08


def test_running_prob_estimate_values():
    est = running_prob_estimate(np.array([0.0, 1.0, 0.0, 1.0]), 0.5, 1)
    np.testing.assert_allclose(est, [0.0, 0.5, 1.0 / 3.0])
    low = running_prob_estimate(np.full(10, -1.0), 0.0, 0)
    np.testing.assert_array_equal(low, np.ones(10))
    with pytest.raises(ValueError):
        running_prob_estimate(np.zeros(4), 0.5, 4)


def test_swap_schedule_uniform_bounds():
    rng = np.random.default_rng(0)
    schedules = [_swap_schedule("uniform", 6, t, rng) for t in range(40)]
    assert all(len(ks) == 6 for ks in schedules)
    assert set(sum(schedules, [])) == set(range(6))


def test_swap_schedule_even_odd_alternates():
    assert _swap_schedule("even_odd", 4, 0, None) == [0, 2, 1, 3]
    assert _swap_schedule("even_odd", 4, 1, None) == [1, 3, 0, 2]
    assert _swap_schedule("even_odd", 1, 1, None) == [0]


def test_emit_outputs_files_and_reproducibility(tmp_path):
    target = GaussianTarget(np.zeros(1), np.eye(1))
    paths = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = gaussian_config(total_target_samples=2000, burnin_samples=200,
                              running_threshold=0.0,
                              out_dir=str(out))
        samples, diag = alps_run(cfg, target)
        paths[tag] = emit_outputs(diag, cfg)
    names = {"trace.csv", "acceptance.json", "modes.json", "timing.json",
             "summary.json"}
    assert set(paths["a"]) == names
    for name in names - {"timing.json"}:  # timing carries wall-clock noise
        with open(paths["a"][name], "rb") as fa, open(paths["b"][name], "rb") as fb:
            assert fa.read() == fb.read(), name

    with open(paths["a"]["trace.csv"]) as fh:
        lines = fh.read().splitlines()
    assert lines[0] == "sweep,x0"
    assert len(lines) == 1 + 200  # 2000 samples thinned by 10
    # sample i is recorded in sweep i // v (v = 5)
    assert [int(line.split(",")[0]) for line in lines[1:]] == \
        list(range(0, 400, 2))

    with open(paths["a"]["acceptance.json"]) as fh:
        acc = json.load(fh)
    for move, levels in acc.items():
        for level, cell in levels.items():
            assert 0 <= cell["accepts"] <= cell["proposals"]
            assert cell["rate"] == pytest.approx(
                cell["accepts"] / cell["proposals"])

    with open(paths["a"]["summary.json"]) as fh:
        summary = json.load(fh)
    assert summary["seed"] == 0
    assert summary["n_target_samples"] == 2000
    assert 0.0 <= summary["running_estimate_terminal"] <= 1.0
    assert summary["n_modes"] == 1

    with open(paths["a"]["modes.json"]) as fh:
        modes = json.load(fh)
    assert len(modes["modes"]) == 1
    np.testing.assert_allclose(modes["log_weights"], [0.0])
    np.testing.assert_allclose(modes["modes"][0]["mu"], [0.0], atol=1e-8)


def test_emit_outputs_zero_samples(tmp_path):
    target = GaussianTarget(np.zeros(1), np.eye(1))
    cfg = gaussian_config(total_target_samples=0, burnin_samples=0,
                          out_dir=str(tmp_path / "z"))
    samples, diag = alps_run(cfg, target)
    assert samples.shape == (0, 1)
    paths = emit_outputs(diag, cfg)
    with open(paths["trace.csv"]) as fh:
        assert fh.read() == "sweep,x0\n"
    with open(paths["timing.json"]) as fh:
        timing = json.load(fh)
    assert timing["seconds_per_1000_target_samples"] is None
