import json

import numpy as np
import pytest
from scipy import stats

from alps import runner
from alps.cli import main
from alps.config import ConfigError, RunConfig
from alps.density import TargetDensity
from alps.diagnostics import (LEAP, LEAP_LOCAL, RWM, SWAP_QUANTA,
                              SWAP_STANDARD, running_prob_estimate)
from alps.kernels import standard_swap_core
from alps.outputs import emit_outputs
from alps.runner import _swap_schedule, alps_run, lais_run, pt_run
from alps.targets.gaussian import GaussianTarget


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
                          s=4, swap_strategy="even_odd")
    target = GaussianTarget(np.zeros(1), np.eye(1))
    _, diag = alps_run(cfg, target)
    swaps = sum(n for (mv, _), (a, n) in diag.counters.items()
                if mv in (SWAP_QUANTA, SWAP_STANDARD))
    assert swaps == 4 * diag.n_sweeps


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
    ({"rwm": {"tune_target": 5.0}}, "tune_target"),
    ({"rwm": {"step_scale": 0}}, "step_scale"),
    ({"rwm": {"step_scale": [1.0, -2.0]}}, "step_scale"),
    ({"rwm": {"hastings": "corrected"}}, "rwm: unknown key"),
    ({"truncation": {"level": "high"}}, "truncation"),
    ({"target": {"name": "iid_product_skew",
                 "params": {"dim": 1, "alpah": 10.0}}}, "alpah"),
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


def test_alps_run_exploration_needs_hot_temperature():
    cfg = gaussian_config(exploration={"enabled": True})
    target = GaussianTarget(np.zeros(1), np.eye(1))
    with pytest.raises(ConfigError, match="beta_hot"):
        alps_run(cfg, target)


def test_alps_run_init_shape_checked():
    cfg = gaussian_config(init=[0.0, 0.0])
    target = GaussianTarget(np.zeros(1), np.eye(1))
    with pytest.raises(ConfigError, match="init"):
        alps_run(cfg, target)


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
    monkeypatch.setattr(runner, "standard_swap_core",
                        lambda *args: standard_swap_core(*args[:7]))
    evaluated, diag_evaluated = pt_run(cfg, target)
    assert len(calls) - carried == carried + 2 * cfg.n_swaps * diag.n_sweeps
    np.testing.assert_array_equal(samples, evaluated)
    assert diag.counters == diag_evaluated.counters


def test_pt_run_is_deterministic():
    target = GaussianTarget(np.zeros(1), np.eye(1))
    a, da = pt_run(pt_config(total_target_samples=2000), target)
    b, db = pt_run(pt_config(total_target_samples=2000), target)
    np.testing.assert_array_equal(a, b)
    assert da.counters == db.counters


def lais_config(**over):
    return gaussian_config(ladder={"betas": [1.0]}, s=0, **over)


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
        lais_run(gaussian_config(ladder={"betas": [1.0, 4.0]},
                                 s=0), target)
    cfg = gaussian_config(ladder={"betas": [1.0]}, s=0,
                          total_target_samples=5000)
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
    ks = _swap_schedule("uniform", 6, 200, 0, rng)
    assert len(ks) == 200
    assert set(ks) <= set(range(6))
    assert len(set(ks)) == 6


def test_swap_schedule_even_odd_alternates():
    assert _swap_schedule("even_odd", 4, 4, 0, None) == [0, 2, 1, 3]
    assert _swap_schedule("even_odd", 4, 4, 1, None) == [1, 3, 0, 2]
    assert _swap_schedule("even_odd", 4, 6, 0, None) == [0, 2, 1, 3, 0, 2]
    assert _swap_schedule("even_odd", 1, 3, 0, None) == [0, 0, 0]
    assert _swap_schedule("even_odd", 1, 2, 1, None) == [0, 0]


def test_emit_outputs_files_and_reproducibility(tmp_path):
    target = GaussianTarget(np.zeros(1), np.eye(1))
    paths = {}
    for tag in ("a", "b"):
        out = tmp_path / tag
        cfg = gaussian_config(total_target_samples=2000, burnin_samples=200,
                              thinning=10, running_threshold=0.0,
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
