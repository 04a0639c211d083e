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
from alps.config import V, ConfigError, RunConfig, preset_dict
from alps.density import TargetDensity
from alps.diagnostics import (HOT, LEAP, RWM, SWAP_QUANTA, SWAP_STANDARD,
                              running_prob_estimate)
from alps.hat import Level, chi2_quantile
from alps.optimize import local_optimize
from alps.outputs import emit_outputs
from alps.registry import (IndefiniteHessianError, ModeRegistry,
                           RegistrySnapshot, covariance_from_hessian,
                           make_mode_info, try_insert)
from alps.runner import alps_run, pt_run
from alps.scaling import predicted_acceptance
from alps.targets import build_target
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
        "total_target_samples": 20000,
        "burnin_samples": 1000,
        "exploration": None,
        "initial_modes": [[0.0]],
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
    assert totals(RWM) == V * t * len(cfg.ladder.betas)
    assert totals(LEAP) == V * t
    # every swap between HAT levels is QuanTA
    assert totals(SWAP_QUANTA) == cfg.n_swaps * t
    assert totals(SWAP_STANDARD) == 0
    assert len(diag.mode_visits_level0) == t
    assert len(diag.mode_visits_top) == t
    assert len(samples) == 1000


def test_alps_run_is_deterministic():
    target = GaussianTarget(np.zeros(1), np.eye(1))
    a, _ = alps_run(gaussian_config(total_target_samples=2000), target)
    b, _ = alps_run(gaussian_config(total_target_samples=2000), target)
    np.testing.assert_array_equal(a, b)


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


# A case's id carries its position: a case that goes leaves its slot to a
# new one, so the ids of the others stay.
@pytest.mark.parametrize("override, message", [
    ({"ladder": {"betas": [1.0, 0.5], "beta_hot": 2.0}}, "beta_hot"),
    # the initial RWM steps are derived from d and the ladder
    ({"rwm": {"step_scale": 2.4}}, "config: unknown key(s) ['rwm']"),
    # target parameters used to run as bool() or float() of what was given
    ({"target": {"name": "iid_product_skew",
                 "params": {"dim": 1, "alpha": True}}},
     "bad target spec: target.params.alpha must be a number"),
    ({"target": {"name": "iid_product_skew",
                 "params": {"dim": 1, "alpha": "10"}}},
     "bad target spec: target.params.alpha must be a number"),
    ({"target": {"name": "iid_product_skew",
                 "params": {"dim": 1, "beta": True}}},
     "bad target spec: target.params.beta must be a number"),
    ({"truncation": {"level": "high"}}, "truncation"),
    ({"target": {"name": "iid_product_skew",
                 "params": {"dim": 1, "alpah": 10.0}}}, "alpah"),
    ({"freeze_sweep": -3}, "config: unknown key(s) ['freeze_sweep']"),
    # a one-year panel used to run
    ({"target": {"name": "sur_grunfeld", "params": {"first_years": True}}},
     "bad target spec: target.params.first_years must be an integer"),
    # QuanTA on every HAT pair: the coin between QuanTA and standard swaps
    # is gone
    ({"swap_quanta_prob": 0.5}, "config: unknown key(s) ['swap_quanta_prob']"),
    ({"ladder": {"betas": [True, 0.5]}}, "ladder.betas must be a number"),
    # Python's json reads NaN and Infinity
    ({"ladder": {"betas": [1.0, float("nan")]}}, "ladder.betas must be finite"),
    ({"ladder": {"betas": [1.0, float("inf")]}}, "ladder.betas must be finite"),
    ({"exploration": {"step_scale": float("nan")}},
     "exploration.step_scale must be finite"),
    # N = 0 years used to give log pi = NaN; -3 dropped the last 3 years
    ({"target": {"name": "sur_grunfeld", "params": {"first_years": 0}}},
     "bad target spec: target.params.first_years must be at least 1"),
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
    ({"target": {"name": "sur_grunfeld", "params": {"first_years": -3}}},
     "bad target spec: target.params.first_years must be at least 1"),
    # fixed or derived values are not settings
    ({"s": 1.5}, "config: unknown key(s) ['s']"),
    ({"s": True}, "config: unknown key(s) ['s']"),
    ({"thinning": False}, "config: unknown key(s) ['thinning']"),
    ({"freeze_sweep": 2.5}, "config: unknown key(s) ['freeze_sweep']"),
    ({"registry_tol": 0.5}, "config: unknown key(s) ['registry_tol']"),
    ({"exploration": {"n_hot_chains": 1.5}},
     "exploration: unknown key(s) ['n_hot_chains']"),
    ({"exploration": {"n_hot_chains": True}},
     "exploration: unknown key(s) ['n_hot_chains']"),
    # used to end in a bare TypeError when the output directory was made
    ({"out_dir": 5}, "out_dir must be a string"),
    # N <= J observations per equation: log pi = -inf at theta = 0 used to
    # run
    ({"target": {"name": "sur_grunfeld", "params": {"first_years": 2}}},
     "bad target spec: unidentifiable system: 2 observations per equation "
     "for 3 covariates"),
    # the bootstrap budget is fixed
    ({"exploration": {"max_bootstrap_attempts": 3}},
     "exploration: unknown key(s) ['max_bootstrap_attempts']"),
    # appended cases keep the ids of those above
    ({"v": 5}, "config: unknown key(s) ['v']"),
    # the streams are keyed on 64 bits: 2^64 + 1 used to run as seed 1
    ({"seed": 2 ** 64}, "seed must be a non-negative integer below 2^64"),
    ({"seed": 2 ** 64 + 1}, "seed must be a non-negative integer below 2^64"),
    # int() used to run 20.7 as d = 20 and true as d = 1; a missing file
    # used to end in a bare FileNotFoundError
    *[({"target": {"name": name, "params": {"dim": dim}}},
       "bad target spec: target.params.dim must be an integer")
      for name in ("iid_product_skew", "skew_normal_mixture_20d")
      for dim in (20.7, True, "20")],
    ({"target": {"name": "sur_csv", "params": {"path": "missing/panel.csv"}}},
     "bad target spec: [Errno 2] No such file or directory"),
    # N < M: log pi = -inf for every theta, and from init null it used to
    # run
    ({"target": {"name": "sur_grunfeld", "params": {"first_years": 4}},
      "init": None},
     "bad target spec: unidentifiable system: 4 observations per equation "
     "for 5 equations"),
    # log pi = -inf at a start point: a search from it used to end in a
    # bare ValueError, and a chain started there never moved
    ({"init": [1e200]}, "log density not finite at init = [1e+200]"),
    ({"initial_modes": [[1e200]]},
     "log density not finite at initial_modes[0] = [1e+200]"),
    # JSON integers too large for a float used to end in a bare
    # OverflowError
    ({"ladder": {"betas": [1.0, 10 ** 400]}}, "ladder.betas must be finite"),
    ({"init": [10 ** 400]}, "init must be finite"),
    ({"target": {"name": "gaussian", "params": {"mu": [10 ** 400],
                                                "sigma": [[1.0]]}}},
     "bad target spec: int too large to convert to float"),
    ({"target": {"name": "iid_product_skew",
                 "params": {"dim": 1, "alpha": 10 ** 400}}},
     "bad target spec: target.params.alpha must be finite"),
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


@pytest.mark.parametrize("override", [
    {"init": [1e200], "ladder": {"betas": [1.0, 4.0], "beta_hot": 0.1}},
    {"initial_modes": [[1e200]], "exploration": None},
], ids=["bootstrap-from-init", "initial-mode"])
def test_cli_run_from_a_start_without_finite_log_density(tmp_path, capsys,
                                                         override):
    # the bootstrap search from init, or the search from an initial mode,
    # used to end in "ValueError: log density not finite at the starting
    # point", exit 1
    config = {
        "target": {"name": "gaussian", "params": {"mu": [0.0],
                                                  "sigma": [[1.0]]}},
        "ladder": {"betas": [1.0, 4.0]}, "seed": 0,
        "total_target_samples": 10, **override}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert main(["run", "--config", str(path)]) == 2
    assert "config error: log density not finite at " in (
        capsys.readouterr().err)


@pytest.mark.parametrize("key, value", [
    ("total_target_samples", 10.5), ("burnin_samples", 2.0),
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
                          initial_modes=[[0.0, 0.0]])
    hat = run_fn is alps_run
    run = runner._Run(cfg, target, np.array(betas), hat=hat)
    # 2.38/sqrt(d) in each level's units; HAT proposals divide by sqrt(beta)
    np.testing.assert_array_equal(run.step_scales, 2.38 / np.sqrt(
        2 * (np.ones(len(betas)) if hat else np.array(betas))))
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
    cfg = gaussian_config(ladder={"betas": [1.0, 0.36]}, initial_modes=None)
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
                           initial_modes=None, **over)


def deo_order(n_pairs):
    """The pairs of one sweep's swaps: the even ones, then the odd ones."""
    return list(range(0, n_pairs, 2)) + list(range(1, n_pairs, 2))


def replayed_round_trips(n_levels, sweeps, freeze):
    """Round trips of the chains of a ladder on which every swap is
    accepted: each sweep exchanges the chains of the pairs in DEO order.
    From the freeze on each chain's visits to the two ends are listed,
    repeats dropped, its place at the freeze included; every visit to
    level 0 that follows one to the top ends a trip."""
    top = n_levels - 1
    at = list(range(n_levels))  # chain label at each level
    ends = {label: [] for label in at}

    def visit():
        for level in (0, top):
            if ends[at[level]][-1:] != [level]:
                ends[at[level]].append(level)
    for t in range(sweeps):
        if t == freeze:
            visit()
        for k in deo_order(n_levels - 1):
            at[k], at[k + 1] = at[k + 1], at[k]
            if t >= freeze:
                visit()
    trips = 0
    for seq in ends.values():
        seq = seq[seq.index(0):] if 0 in seq else []
        trips += max(seq.count(0) - 1, 0)
    return trips


@pytest.mark.parametrize("n_levels", [1, 2, 6])
def test_round_trips_on_a_flat_ladder_replay_the_deo_permutation(n_levels):
    # log pi = 0: every RWM step and every swap is accepted, so the chains
    # move by the fixed DEO permutation
    target = TargetDensity(1, lambda x: 0.0)
    cfg = gaussian_config(ladder={"betas": [0.5 ** k for k in range(n_levels)]},
                          initial_modes=None, total_target_samples=500,
                          burnin_samples=100)
    _, diag = pt_run(cfg, target)
    assert all(a == n for a, n in diag.counters.values())
    trips = replayed_round_trips(n_levels, cfg.n_sweeps, cfg.burnin_sweeps)
    assert diag.round_trips == trips
    # one level makes no trips; on two, each chain is back at level 0
    # every second sweep of the 80 after burn-in; on six, each chain
    # crosses the ladder in about five parities
    assert trips == {1: 0, 2: 79, 6: 75}[n_levels]


def test_pt_run_counter_identities():
    cfg = pt_config(total_target_samples=1000, burnin_samples=100)
    target = GaussianTarget(np.zeros(1), np.eye(1))
    target.component_locations = np.array([[-1.0], [2.0]])
    samples, diag = pt_run(cfg, target)
    t = diag.n_sweeps
    assert proposals(diag, RWM) == V * t * 3
    assert proposals(diag, SWAP_STANDARD) == cfg.n_swaps * t
    assert proposals(diag, SWAP_QUANTA) == 0
    assert len(diag.mode_visits_level0) == len(diag.mode_visits_top) == t
    assert set(diag.mode_visits_level0) <= {0, 1}
    assert len(diag.tuned_step_scales) == 3
    assert diag.registry is None
    assert len(samples) == 1000


def test_pt_run_swaps_evaluate_no_density(monkeypatch):
    # each chain carries log pi of its state: pi is evaluated once at
    # the shared start point and once per RWM proposal, never by a swap
    base = GaussianTarget(np.zeros(1), np.eye(1))
    calls = []
    target = TargetDensity(
        1, lambda x: calls.append(None) or base.log_density(x))
    cfg = pt_config(total_target_samples=1000, burnin_samples=100)
    samples, diag = pt_run(cfg, target)
    assert proposals(diag, SWAP_STANDARD) == cfg.n_swaps * diag.n_sweeps > 0
    carried = len(calls)
    assert carried == 1 + 3 * V * diag.n_sweeps
    # and the run is the one that prices every swap by two evaluations
    # and then evaluates the two records afresh
    monkeypatch.setattr(runner, "_swap_phase", reference_swap_phase)
    evaluated, diag_evaluated = pt_run(cfg, target)
    assert len(calls) - carried == carried + 4 * cfg.n_swaps * diag.n_sweeps
    np.testing.assert_array_equal(samples, evaluated)
    assert diag.counters == diag_evaluated.counters
    monkeypatch.undo()

    # on an ALPS ladder the chains carry their records too: no swap, leap
    # or mode visit evaluates pi or the quad forms at a chain's current
    # state, and the swap decision and mode visits evaluate nothing at all:
    # the swap phase evaluates only the points its QuanTA kernel does
    run_fn, cfg, target = two_mode_alps_case()
    points = []
    log_density, quad_forms = target.log_density, RegistrySnapshot.quad_forms
    monkeypatch.setattr(target, "log_density", lambda x: points.append(
        np.array(x)) or log_density(x))
    monkeypatch.setattr(RegistrySnapshot, "quad_forms", lambda snap, x: (
        points.append(np.array(x)) or quad_forms(snap, x)))
    calls, evaluated = {}, {}

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
            evaluated[name] = evaluated.get(name, 0) + len(new)
            return out
        monkeypatch.setattr(runner, name, wrapped)

    watched("_swap_phase", lambda *_: (), True)
    watched("standard_swap_core", lambda *_: (), False)
    watched("quanta_swap_core", lambda base, snap, x, *_: tuple(x), True)
    watched("mode_leap_core", lambda a, *_: (a.x,), True)
    watched("_hat_visits", lambda run, t: (run.X[0], run.X[run.n]), False)
    run_fn(cfg, target)
    assert min(calls.values()) > 0 and len(calls) == 5
    assert evaluated["_swap_phase"] == evaluated["quanta_swap_core"] > 0


def reference_rwm_core_alloc(x, logp_x, target, step_scale, z, u, a_x=None):
    """One RWM step as a single function on its drawn z and u: propose,
    evaluate, then decide with the scalar kernel."""
    log_u = np.log(u)
    snapshot = getattr(target, "snapshot", None)
    if snapshot is None:
        y = x + step_scale * z
        value_and_base = getattr(target, "value_and_base", None)
        if value_and_base is None:
            logp_y, a_y = target.log_density(y), None
        else:
            logp_y, a_y = value_and_base(y)
        if kernels._accept(logp_y - logp_x, log_u):
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
    if kernels._accept(log_ratio, log_u):
        return y, logp_y, a_y, True
    return x, logp_x, a_x, False


def reference_rwm_phase(run, t):
    """The RWM phase updating one level after another, the top level
    included, V steps each, level k's step r taking its z and u from row
    k of the sweep's draw block's repetition r; the chain's record is
    evaluated afresh at its last state."""
    levels = range(run.n + 1)
    rng = run.factory.stream(runner.RWM_STREAM, t)
    Z = rng.standard_normal((V, len(levels), run.target.dim))
    U = rng.random((V, len(levels)))
    rates = np.zeros(len(levels))
    for k in levels:
        accepted = 0
        a_k = None
        x = run.X[k]
        logp = run.level_targets[k].value(run.record(k))[0]
        for r in range(V):
            x, logp, a_k, acc = reference_rwm_core_alloc(
                x, logp, run.level_targets[k], run.step_scales[k], Z[r, k],
                U[r, k], a_k)
            accepted += int(acc)
            run.diag.count(RWM, k, acc)
            if k == 0:
                run.diag.record_sample(x)
        run.X[k], run.logpi[k], run.qf[k] = run.level_targets[k].record(x)
        rates[k] = accepted / V
    run.tune(rates, t)


def two_mode_alps_case(betas=(1.0, 2.0, 6.0), **over):
    target = GaussianMixtureTarget([0.6, 0.4], [[0.0, 0.0], [3.0, 0.5]],
                                   [np.eye(2), 0.5 * np.eye(2)])
    cfg = gaussian_config(ladder={"betas": list(betas)},
                          initial_modes=[[0.0, 0.0], [3.0, 0.5]],
                          truncation={"level": 0.999},
                          total_target_samples=1500, burnin_samples=500,
                          **over)
    return alps_run, cfg, target


def skew_pt_case():
    # a vectorized log_density_batch
    target = IidProductTarget(SkewShape(alpha=10.0), dim=5)
    cfg = pt_config(total_target_samples=1500, burnin_samples=500)
    return pt_run, cfg, target


# sha256 of the level-0 samples and of the sorted acceptance counters of
# the two cases above and of an exploring ALPS run, recorded on x86-64
# Linux (numpy 2.4, OpenBLAS): refactors that keep behaviour keep them.
# A platform whose libm or BLAS rounds differently changes them.
PINNED_DIGESTS = {
    "alps-hat": (
        "8033c0dff0c2a17cf04f4c4c2bfbe92e90ce1f7571a7177ee0b44af26cac2abd",
        "96af9fe740fb55550052c2ff71ddf71d5acc1cb74004eea0d69d23b1495fd4e0"),
    "pt-batched": (
        "0843017efdf9f18d3786afb8a3c73b97745b5d9607632ec9f903018313eb3462",
        "4fe7afd7720fd0de3791aea6035e67ff1b5a55041b90a008adc9cba563e51ed7"),
    "alps-exploring": (
        "eae6c7368d3a1390a95be334367d6b94c3f8ce226c2d1391fae77b52bdc8e27a",
        "356c03e2d81bd7a5f251fbc67f2efa71a6dbd26fcf33da65acb1341003e40bb2"),
}


@pytest.mark.parametrize("name, case", [
    ("alps-hat", two_mode_alps_case),
    ("pt-batched", skew_pt_case),
    ("alps-exploring", lambda: exploring_case(initial_modes=None,
                                              exploration=explore(0.5))),
], ids=["alps-hat", "pt-batched", "alps-exploring"])
def test_fixed_seed_runs_keep_their_digests(name, case):
    # the ALPS case runs truncated HAT, QuanTA swaps and leaps; the PT
    # case the batched power path; the exploring case the bootstrap,
    # refreshes, searches and the hot chain's tallied steps
    run_fn, cfg, target = case()
    samples, diag = run_fn(cfg, target)
    counters = repr(sorted(diag.counters.items())).encode()
    assert (hashlib.sha256(samples.tobytes()).hexdigest(),
            hashlib.sha256(counters).hexdigest()) == PINNED_DIGESTS[name]


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


def reference_leap_phase(run, t):
    """The leap phase one leap after another: leap r takes its component
    uniform, its z and its decision uniform from row r of the sweep's
    drawn block, evaluates its proposal and both mixture densities on its
    own, and is decided by the scalar kernel; the chain's record is
    evaluated afresh at its last state."""
    n, level = run.n, run.level_targets[run.n]
    snap, beta = level.snapshot, level.beta
    rng = run.factory.stream(runner.LEAP_STREAM, t)
    C = rng.random(V)
    Z = rng.standard_normal((V, run.target.dim))
    U = rng.random(V)
    x = run.X[n]
    logp = level.log_density(x)
    for r in range(V):
        y = reference_mixture_draw(snap, beta, C[r], Z[r])
        logp_y = level.log_density(y)
        log_ratio = (
            (logp_y + kernels.mixture_log_density(snap, beta,
                                                  snap.quad_forms(x)))
            - (logp + kernels.mixture_log_density(snap, beta,
                                                  snap.quad_forms(y))))
        accepted = bool(kernels._accept(log_ratio, np.log(U[r])))
        if accepted:
            x, logp = y, logp_y
        run.diag.count(LEAP, n, accepted)
    run.X[n], run.logpi[n], run.qf[n] = level.record(x)


def lais_case():
    target = GaussianMixtureTarget([0.6, 0.4], [[0.0, 0.0], [3.0, 0.5]],
                                   [np.eye(2), 0.5 * np.eye(2)])
    cfg = lais_config(initial_modes=[[0.0, 0.0], [3.0, 0.5]],
                      total_target_samples=1500, burnin_samples=500)
    return alps_run, cfg, target


@pytest.mark.parametrize("case", [two_mode_alps_case, lais_case],
                         ids=["alps-hat", "lais"])
def test_block_leap_phase_equals_leap_by_leap_reference(monkeypatch, case):
    run_fn, cfg, target = case()
    samples, diag = run_fn(cfg, target)
    monkeypatch.setattr(runner, "_leap_phase", reference_leap_phase)
    ref_samples, ref_diag = run_fn(cfg, target)
    np.testing.assert_array_equal(samples, ref_samples)
    assert diag.counters == ref_diag.counters
    assert diag.tuned_step_scales == ref_diag.tuned_step_scales
    assert diag.mode_visits_level0 == ref_diag.mode_visits_level0
    assert diag.mode_visits_top == ref_diag.mode_visits_top
    # leaps were both accepted and rejected, V per sweep at the top level
    top = len(cfg.ladder.betas) - 1
    accepts, proposed = diag.counters[(LEAP, top)]
    assert 0 < accepts < proposed == V * diag.n_sweeps


def test_alps_recovers_unequal_mode_weights():
    # HAT keeps each mode's mass at every level, so level 0 must split its
    # time 0.7 / 0.3 between two modes of unequal covariance, which it
    # reaches only through the leaps at the top level and the swaps
    weights, mus = [0.7, 0.3], [[0.0, 0.0], [10.0, 3.0]]
    sigmas = [[[1.0, 0.3], [0.3, 0.5]], [[0.4, -0.1], [-0.1, 1.2]]]
    target = GaussianMixtureTarget(weights, mus, sigmas)
    cfg = gaussian_config(ladder={"betas": [1.0, 8.0]}, initial_modes=mus,
                          init=[0.0, 0.0],
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
                               init=[0.0, 0.0], total_target_samples=3000)
    walk, _ = pt_run(walk_cfg, target)
    assert np.all(walk[:, 0] < 5.0)


def test_alps_recovers_three_mode_weights_with_one_mode_far_away():
    # two near modes and one ~70 units away: the far one is reached only
    # by the top level's leaps, and level 0 must still split its time
    # 0.5 / 0.3 / 0.2 between the three (nearest mode point, within four
    # batch-means standard errors)
    weights = [0.5, 0.3, 0.2]
    mus = [[0.0, 0.0], [6.0, 2.0], [60.0, -40.0]]
    sigmas = [[[1.0, 0.3], [0.3, 0.5]], [[0.4, -0.1], [-0.1, 1.2]],
              [[2.0, 0.5], [0.5, 0.8]]]
    target = GaussianMixtureTarget(weights, mus, sigmas)
    cfg = gaussian_config(ladder={"betas": [1.0, 8.0]}, initial_modes=mus,
                          init=[0.0, 0.0],
                          total_target_samples=6000, burnin_samples=600)
    samples, _ = alps_run(cfg, target)
    post = samples[cfg.burnin_samples:]
    nearest = np.argmin(
        ((post[:, None, :] - np.array(mus)[None]) ** 2).sum(axis=2), axis=1)
    for k, weight in enumerate(weights):
        batches = (nearest == k).reshape(30, -1).mean(axis=1)
        mcse = batches.std(ddof=1) / np.sqrt(batches.size)
        assert mcse < 0.03, k
        assert abs(batches.mean() - weight) < 4.0 * mcse, k
    # level 0 enters and leaves the far mode many times
    assert np.count_nonzero(np.diff(nearest == 2)) > 50


def test_build_levels_restarts_stranded_states_at_the_dominant_mode():
    # a start far outside the truncation balls has value -inf at the
    # truncated levels (beta > 1): their chains restart at the mode of
    # largest weight, and level 0, not truncated, keeps the start
    target = GaussianMixtureTarget([0.6, 0.4], [[0.0, 0.0], [3.0, 0.5]],
                                   [np.eye(2), 0.5 * np.eye(2)])
    cfg = gaussian_config(ladder={"betas": [1.0, 2.0, 6.0]},
                          initial_modes=[[0.0, 0.0], [3.0, 0.5]],
                          truncation={"level": 0.99}, init=[40.0, 40.0])
    run = runner._Run(cfg, target, np.array(cfg.ladder.betas), hat=True)
    start = np.array(cfg.init)
    np.testing.assert_array_equal(run.X[0], start)
    snap = run.snapshot
    mode = snap.mus[int(np.argmax(snap.log_weights))]
    for k, level in enumerate(run.level_targets[1:], start=1):
        assert level.value(level.record(start))[0] == -np.inf
        np.testing.assert_array_equal(run.X[k], mode)
        assert np.isfinite(level.value(run.record(k))[0])


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
                               target_k1, u):
    """The QuanTA swap decided by the uniform u; a proposal that changes
    either allocation is rejected.  Returns (accepted, the state now at
    level k, the state now at level k + 1, their values)."""
    snapshot = target_k.snapshot
    m1 = target_k.allocate_index(x_k)
    m2 = target_k1.allocate_index(x_k1)
    y_k = kernels.quanta_transform(x_k, target_k.beta, target_k1.beta,
                                   snapshot.mus[m1])
    y_k1 = kernels.quanta_transform(x_k1, target_k1.beta, target_k.beta,
                                    snapshot.mus[m2])
    lp_yk_at_k1 = target_k1.log_density(y_k)
    lp_yk1_at_k = target_k.log_density(y_k1)
    if (target_k1.allocate_index(y_k) != m1
            or target_k.allocate_index(y_k1) != m2):
        return False, x_k, x_k1, logp_k, logp_k1
    log_ratio = (lp_yk_at_k1 + lp_yk1_at_k) - (logp_k + logp_k1)
    if kernels._accept(log_ratio, np.log(u)):
        return True, y_k1, y_k, lp_yk1_at_k, lp_yk_at_k1
    return False, x_k, x_k1, logp_k, logp_k1


def reference_standard_swap_core(x_k, x_k1, logp_k, logp_k1, target_k,
                                 target_k1, u):
    """The standard swap decided by the uniform u, evaluating both states
    at the other level; returns what `reference_quanta_swap_core`
    returns."""
    lp_xk1_at_k = target_k.log_density(x_k1)
    lp_xk_at_k1 = target_k1.log_density(x_k)
    log_ratio = (lp_xk1_at_k + lp_xk_at_k1) - (logp_k + logp_k1)
    if kernels._accept(log_ratio, np.log(u)):
        return True, x_k1, x_k, lp_xk1_at_k, lp_xk_at_k1
    return False, x_k, x_k1, logp_k, logp_k1


def reference_swap_phase(run, t):
    """The swap phase one pair at a time: it draws the uniforms one at a
    time in pair order, and then makes the swaps in DEO order, QuanTA on
    HAT levels and standard on power levels, each evaluating its states
    at the other level; the records of the two chains are evaluated
    afresh after each swap and written to their rows of the block."""
    n = run.n
    if n < 1:
        return
    rng = run.factory.stream(runner.SWAP_STREAM, t)
    draws = [rng.random() for _ in range(n)]
    if run.snapshot is not None:
        move, swap = SWAP_QUANTA, reference_quanta_swap_core
    else:
        move, swap = SWAP_STANDARD, reference_standard_swap_core
    targets = run.level_targets
    logps = [target.value(run.record(k))[0]
             for k, target in enumerate(targets)]
    for k in deo_order(n):
        u = draws[k]
        accepted, low, high, logps[k], logps[k + 1] = swap(
            run.X[k].copy(), run.X[k + 1].copy(), logps[k], logps[k + 1],
            targets[k], targets[k + 1], u)
        run.diag.count(move, k, accepted)
        run.X[k], run.logpi[k], run.qf[k] = targets[k].record(low)
        run.X[k + 1], run.logpi[k + 1], run.qf[k + 1] = \
            targets[k + 1].record(high)


def located_pt_case():
    # five levels: two pairs of each parity
    target = GaussianTarget(np.zeros(1), np.eye(1))
    target.component_locations = np.array([[-1.0], [2.0]])
    cfg = gaussian_config(ladder={"betas": [1.0, 0.6, 0.36, 0.2, 0.1]},
                          initial_modes=None, total_target_samples=1500,
                          burnin_samples=500)
    return pt_run, cfg, target


def five_level_alps_case():
    return two_mode_alps_case(betas=[1.0, 1.5, 2.5, 4.0, 6.0])


def four_level_alps_case():
    # three pairs: the even parity holds two of them, the odd one
    return two_mode_alps_case(betas=[1.0, 3.0, 9.0, 27.0])


@pytest.mark.parametrize("case", [
    located_pt_case, five_level_alps_case, four_level_alps_case],
    ids=["pt", "alps-hat", "alps-hat-quanta"])
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
    # QuanTA on HAT levels, standard on power levels, each accepted at
    # every pair; the other kind has no counter
    move, other = ((SWAP_QUANTA, SWAP_STANDARD) if run_fn is alps_run
                   else (SWAP_STANDARD, SWAP_QUANTA))
    for k in range(cfg.n_swaps):
        assert diag.counters[(move, k)][0] > 0
        assert (other, k) not in diag.counters


@pytest.mark.parametrize("case", [located_pt_case, five_level_alps_case],
                         ids=["pt", "alps-hat"])
def test_every_sweep_swaps_the_even_pairs_then_the_odd(monkeypatch, case):
    run_fn, cfg, target = case()
    swaps = []
    count = runner.RunDiagnostics.count

    def recorded(diag, move, level, accepts, proposals=1):
        if move in (SWAP_STANDARD, SWAP_QUANTA):
            swaps.append((move, level))
        count(diag, move, level, accepts, proposals)
    monkeypatch.setattr(runner.RunDiagnostics, "count", recorded)
    _, diag = run_fn(cfg, target)
    n = cfg.n_swaps
    assert len(swaps) == n * diag.n_sweeps
    for t in range(diag.n_sweeps):
        assert [k for _, k in swaps[t * n:(t + 1) * n]] == deo_order(n) \
            == [0, 2, 1, 3]
    assert {move for move, _ in swaps} == (
        {SWAP_QUANTA} if run_fn is alps_run else {SWAP_STANDARD})


def reference_settings(config):
    """The exploration settings as the hot chain read them."""
    ec = config.exploration
    return SimpleNamespace(beta_hot=config.ladder.beta_hot,
                           step_scale=ec.step_scale,
                           refresh_from_modes=ec.refresh_from_modes)


def reference_mixture_draw(snap, beta, u, z):
    """The mixture point of component uniform u and z ~ N(0, I)."""
    cum = np.cumsum(np.exp(snap.log_weights))
    j = min(int(np.searchsorted(cum, u * cum[-1])), snap.n_modes - 1)
    return snap.mus[j] + (snap.chols[j] @ z) / np.sqrt(beta)


def reference_mfind(x_hot, registry, base, cfg, rng, count, log_cb=None):
    """One exploration step as one function: the refresh coin, V + 1
    `hot_step` updates (two evaluations each), each passed to `count`,
    then the ascent, Hessian and insertion; returns (x_hot', registry',
    found_new)."""
    x_hot = np.asarray(x_hot, dtype=float)
    if cfg.refresh_from_modes > 0.0 and registry.n_modes > 0:
        if rng.random() < cfg.refresh_from_modes:
            x_hot = reference_mixture_draw(registry.snapshot(), 1.0,
                                           rng.random(),
                                           rng.standard_normal(base.dim))
    for _ in range(V + 1):
        x_hot, accepted = exploration.hot_step(x_hot, cfg.beta_hot, base, rng,
                                               cfg.step_scale)
        count(accepted)
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
    """Initial modes, then the bootstrap."""
    config = run.config
    run.registry = ModeRegistry(dim=run.target.dim)
    for point in config.initial_modes or []:
        reference_register_point_as_mode(point, run.target, run.registry)
    run.hot_target = Level(run.target, config.ladder.beta_hot)
    run.hot_state = run.hot_target.record(x0.copy())
    if run.registry.n_modes == 0:
        run._bootstrap()


def reference_search(run, sweep, rng):
    """One logged exploration step of the hot chain, its steps tallied
    under HOT; its record is evaluated afresh at the state the step
    reached."""
    record = {}
    x_hot, run.registry, found = reference_mfind(
        run.hot_state.x, run.registry, run.target,
        reference_settings(run.config), rng,
        lambda accepted: run.diag.count(HOT, -1, accepted),
        log_cb=record.update)
    run.hot_state = run.hot_target.record(x_hot)
    run.diag.discovery_log.append({"sweep": sweep, **record})
    if found:
        run.diag.registry_events.append(
            {"sweep": sweep, "version": run.registry.version,
             "n_modes": run.registry.n_modes})
    return found


def reference_exploration_phase(run, t):
    """Until the freeze the hot chain runs a whole exploration step; from
    the freeze on it stays where it is."""
    if t < run.freeze:
        run.stage = "exploration"
        reference_search(run, t, run.factory.stream(runner.EXPLORE_STREAM, t))


def exploring_case(betas=(1.0, 2.0, 6.0), **over):
    target = GaussianMixtureTarget([0.6, 0.4], [[0.0, 0.0], [3.0, 0.5]],
                                   [np.eye(2), 0.5 * np.eye(2)])
    cfg = gaussian_config(
        ladder={"betas": list(betas), "beta_hot": 0.2},
        total_target_samples=600, burnin_samples=300,
        **over)
    return alps_run, cfg, target


def explore(refresh):
    return {"step_scale": 3.0, "refresh_from_modes": refresh}


@pytest.mark.parametrize("case", [
    lambda: exploring_case(initial_modes=None, exploration=explore(0.0)),
    lambda: exploring_case(initial_modes=None, exploration=explore(0.5)),
    lambda: exploring_case(initial_modes=[[3.0, 0.5]],
                           exploration=explore(0.0)),
    lambda: exploring_case(initial_modes=[[0.0, 0.0]],
                           exploration=explore(0.5)),
    lambda: exploring_case(betas=(1.0,), initial_modes=[[0.0, 0.0]],
                           exploration=explore(0.5)),
], ids=["bootstrap-1-chain", "bootstrap-1-chain-refresh",
        "initial-modes-1-chain", "initial-modes-1-chain-refresh",
        "lais-1-chain-refresh"])
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
    # the freeze only, and every hot step of every search tallied
    bootstrap = sum(rec["sweep"] == -1 for rec in diag.discovery_log)
    sweep_searches = len(diag.discovery_log) - bootstrap
    assert registry.n_modes == 2 and diag.registry_events
    assert sweep_searches == cfg.burnin_sweeps < diag.n_sweeps
    assert diag.counters[(HOT, -1)][1] == (V + 1) * (
        bootstrap + cfg.burnin_sweeps)


def test_bootstrap_abort_names_budget_and_failures(tmp_path, capsys,
                                                   monkeypatch):
    # a linear log density has no mode: every ascent runs off
    target = TargetDensity(2, lambda x: float(x.sum()),
                           gradient=lambda x: np.ones(2))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "target": {"name": "gaussian"},
        "ladder": {"betas": [1.0, 4.0], "beta_hot": 0.5}, "seed": 0,
        "total_target_samples": 10}))
    monkeypatch.setattr(cli, "build_target", lambda name, params: target)
    monkeypatch.setattr(runner, "MAX_BOOTSTRAP_ATTEMPTS", 3)
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


# The command-line run in a fresh interpreter; its last stdout line is
# [exit status, whether scipy.linalg was imported].
LINALG_SCRIPT = """
import json
import sys

from alps.cli import main

status = main(sys.argv[1:])
print(json.dumps([status, "scipy.linalg" in sys.modules]))
"""

SMOKE_SIZES = {"total_target_samples": 200, "burnin_samples": 100}


@pytest.mark.parametrize("command, preset, override, loaded", [
    ("pt", "synthetic-20d-pt",
     {"target": {"name": "iid_product_skew",
                 "params": {"dim": 20, "alpha": 10.0}},
      "init": [0.0] * 20, "running_threshold": None}, False),
    ("run", "synthetic-20d", {}, True),
], ids=["pt-iid-product-skew", "alps-synthetic-20d"])
def test_only_runs_that_factor_a_matrix_load_scipy_linalg(
        tmp_path, command, preset, override, loaded):
    # PT on power levels factors and solves nothing, so it does not load
    # LAPACK (about 6.4 MiB resident with scipy 1.17 on x86-64 Linux); an
    # ALPS run factors each mode's covariance, so it does
    path = tmp_path / "override.json"
    path.write_text(json.dumps({**override, **SMOKE_SIZES}))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", LINALG_SCRIPT, command, "--preset", preset,
         "--config", str(path), "--seed", "1", "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, loaded]


def test_pt_run_is_deterministic():
    target = GaussianTarget(np.zeros(1), np.eye(1))
    a, da = pt_run(pt_config(total_target_samples=2000), target)
    b, db = pt_run(pt_config(total_target_samples=2000), target)
    np.testing.assert_array_equal(a, b)
    assert da.counters == db.counters


def lais_config(**over):
    return gaussian_config(ladder={"betas": [1.0]}, **over)


def test_lais_run_counter_identities():
    # LAIS is ALPS on the one-level ladder [1.0]: V RWM steps and V mode
    # leaps at level 0 per sweep, and no swaps
    cfg = lais_config(total_target_samples=1000, burnin_samples=100)
    target = GaussianTarget(np.zeros(1), np.eye(1))
    samples, diag = alps_run(cfg, target)
    t = diag.n_sweeps
    assert proposals(diag, LEAP) == V * t
    assert proposals(diag, RWM) == V * t
    assert proposals(diag, SWAP_QUANTA) + proposals(diag, SWAP_STANDARD) == 0
    assert len(diag.mode_visits_level0) == t
    assert diag.mode_visits_top == diag.mode_visits_level0
    assert diag.registry.n_modes == 1
    # level 0's RWM step is tuned away from its start, 2.38/sqrt(d)
    assert len(diag.tuned_step_scales) == 1
    assert diag.tuned_step_scales != [2.38]
    assert len(samples) == 1000


def test_lais_run_is_deterministic():
    target = GaussianTarget(np.zeros(1), np.eye(1))
    a, da = alps_run(lais_config(total_target_samples=2000), target)
    b, db = alps_run(lais_config(total_target_samples=2000), target)
    np.testing.assert_array_equal(a, b)
    assert da.counters == db.counters


def test_lais_fails_in_high_dimension_where_the_cold_top_level_leaps():
    # the paper's motivation on its 20-d skew-normal benchmark: at
    # beta = 1 mixture leaps from the Laplace approximation are almost
    # never accepted, while at the cold top of the ALPS ladder they are
    # accepted at the rate the scaling limit predicts for beta = ell * d
    target = build_target("skew_normal_mixture_20d", {})
    config = preset_dict("synthetic-20d")
    config.update(exploration=None, total_target_samples=2000,
                  burnin_samples=500,
                  initial_modes=target.component_modes().tolist())

    def top_leap_rate(betas):
        cfg = RunConfig.from_dict(
            dict(config, ladder=dict(config["ladder"], betas=betas)))
        _, diag = alps_run(cfg, target)
        accepts, proposed = diag.counters[(LEAP, len(betas) - 1)]
        assert proposed > 900
        return accepts / proposed

    top_betas = config["ladder"]["betas"]
    shape = SkewShape(alpha=10.0)
    predicted = predicted_acceptance(shape.h3(), shape.h2(),
                                     top_betas[-1] / target.dim)
    assert abs(predicted - 0.833) < 1e-3
    assert top_leap_rate([1.0]) < 0.01
    assert abs(top_leap_rate(top_betas) - predicted) < 0.05


def test_cli_runs_the_lais_preset_under_run(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"exploration": None,
                                "total_target_samples": 100}))
    assert main(["run", "--preset", "synthetic-20d-lais",
                 "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "  leap: acceptance" in out and "  rwm: acceptance" in out
    # there is no separate LAIS subcommand
    with pytest.raises(SystemExit) as exit_info:
        main(["lais", "--preset", "synthetic-20d-lais"])
    assert exit_info.value.code == 2


def test_running_prob_estimate_values():
    est = running_prob_estimate(np.array([0.0, 1.0, 0.0, 1.0]), 0.5, 1)
    np.testing.assert_allclose(est, [0.0, 0.5, 1.0 / 3.0])
    low = running_prob_estimate(np.full(10, -1.0), 0.0, 0)
    np.testing.assert_array_equal(low, np.ones(10))
    with pytest.raises(ValueError):
        running_prob_estimate(np.zeros(4), 0.5, 4)


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
    # sample i is recorded in sweep i // V (V = 5)
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
