import json

import numpy as np
import pytest

from alps.config import (ConfigError, PRESETS, RunConfig, deep_merge,
                         load_config, preset_dict)

MINIMAL = {
    "target": {"name": "skew_normal_mixture_20d"},
    "ladder": {"betas": [1.0, 4.0]},
    "seed": 7,
}


def test_minimal_config_parses_with_defaults():
    cfg = RunConfig.from_dict(MINIMAL)
    assert cfg.seed == 7
    assert cfg.v == 5
    assert cfg.n_levels == 2
    assert cfg.n_swaps == 1
    assert cfg.swap_strategy == "uniform"
    assert (cfg.rwm.step_scale, cfg.rwm.tune, cfg.rwm.tune_target) == (
        1.0, False, 0.234)
    assert cfg.exploration is not None and cfg.exploration.enabled


def test_seed_is_mandatory():
    bad = {k: v for k, v in MINIMAL.items() if k != "seed"}
    with pytest.raises(ConfigError, match="seed"):
        RunConfig.from_dict(bad)
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, seed=-1))


def test_unknown_keys_rejected_at_every_level():
    with pytest.raises(ConfigError, match="unknown key"):
        RunConfig.from_dict(dict(MINIMAL, typo=1))
    with pytest.raises(ConfigError, match="ladder"):
        RunConfig.from_dict(dict(MINIMAL, ladder={"betas": [1.0], "oops": 2}))
    with pytest.raises(ConfigError, match="rwm"):
        RunConfig.from_dict(dict(MINIMAL, rwm={"step": 1.0}))
    with pytest.raises(ConfigError, match="exploration"):
        RunConfig.from_dict(dict(MINIMAL, exploration={"stepscale": 1.0}))


def test_value_validation():
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, ladder={"betas": []}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, ladder={"betas": [0.0, 1.0]}))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, v=0))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, thinning=0))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, s=-1))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, swap_quanta_prob=1.5))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, swap_strategy="roundrobin"))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, truncation={"level": 1.0}))
    with pytest.raises(ConfigError, match="beta_hot"):
        RunConfig.from_dict(dict(MINIMAL, ladder={"betas": [1.0],
                                                  "beta_hot": 2.0}))
    with pytest.raises(ConfigError, match="tune_target"):
        RunConfig.from_dict(dict(MINIMAL, rwm={"tune_target": 5.0}))
    for step in (0, -1.0, [1.0, -2.0]):
        with pytest.raises(ConfigError, match="step_scale"):
            RunConfig.from_dict(dict(MINIMAL, rwm={"step_scale": step}))
    for attempts in (0, -3):
        with pytest.raises(ConfigError, match="max_bootstrap_attempts"):
            RunConfig.from_dict(dict(
                MINIMAL, exploration={"max_bootstrap_attempts": attempts}))


def test_swap_strategy_even_odd_accepted():
    cfg = RunConfig.from_dict(dict(MINIMAL, swap_strategy="even_odd"))
    assert cfg.swap_strategy == "even_odd"


def test_derived_quantities():
    cfg = RunConfig.from_dict(dict(MINIMAL, v=5, total_target_samples=101,
                                   burnin_samples=10))
    assert cfg.n_sweeps == 21
    assert cfg.burnin_sweeps == 2
    assert cfg.freeze_at_sweep == 2
    cfg2 = RunConfig.from_dict(dict(MINIMAL, freeze_sweep=17))
    assert cfg2.freeze_at_sweep == 17


def test_step_scales_broadcast_and_length_check():
    cfg = RunConfig.from_dict(dict(MINIMAL, rwm={"step_scale": 0.5}))
    assert cfg.rwm.step_scales(4) == [0.5] * 4
    cfg = RunConfig.from_dict(dict(MINIMAL,
                                   rwm={"step_scale": [0.5, 0.25]}))
    assert cfg.rwm.step_scales(2) == [0.5, 0.25]
    with pytest.raises(ConfigError, match="expected 3 entries"):
        cfg.rwm.step_scales(3)


def test_deep_merge_nested_override():
    base = {"a": {"b": 1, "c": 2}, "d": [1, 2], "e": 5}
    out = deep_merge(base, {"a": {"c": 9}, "d": [7]})
    assert out == {"a": {"b": 1, "c": 9}, "d": [7], "e": 5}
    assert base["a"]["c"] == 2  # merge never mutates its inputs


def test_all_presets_parse():
    for name in PRESETS:
        cfg = RunConfig.from_dict(preset_dict(name))
        assert cfg.n_levels >= 1
        assert cfg.ladder.betas[0] == 1.0


def test_benchmark_preset_values():
    cfg = RunConfig.from_dict(preset_dict("synthetic-20d"))
    assert cfg.ladder.betas == [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0]
    assert cfg.ladder.beta_hot == 5e-6
    assert cfg.s == 6 and cfg.v == 5
    assert cfg.rwm.step_scale == 2.38 / np.sqrt(20.0) and cfg.rwm.tune
    assert cfg.total_target_samples == 200000
    pt = RunConfig.from_dict(preset_dict("synthetic-20d-pt"))
    assert pt.n_levels == 14
    np.testing.assert_allclose(pt.ladder.betas, [0.6 ** k for k in range(14)])
    assert pt.exploration is None
    lais = RunConfig.from_dict(preset_dict("synthetic-20d-lais"))
    assert lais.ladder.betas == [1.0]
    assert lais.n_swaps == 0


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_dict("nope")


def test_load_config_merges_file_and_cli(tmp_path):
    p = tmp_path / "override.json"
    p.write_text(json.dumps({"total_target_samples": 50,
                             "rwm": {"tune": False}}))
    cfg = load_config(preset="synthetic-20d", config_path=str(p), seed=42)
    assert cfg.total_target_samples == 50
    assert cfg.seed == 42
    assert not cfg.rwm.tune
    assert cfg.rwm.step_scale == 2.38 / np.sqrt(20.0)  # preset value survives


def test_load_config_requires_some_source():
    with pytest.raises(ConfigError, match="no configuration"):
        load_config()
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(config_path="/nonexistent/cfg.json")


def test_from_json_reports_parse_errors():
    with pytest.raises(ConfigError, match="invalid JSON"):
        RunConfig.from_json("{not json")
