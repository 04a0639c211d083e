import json
from dataclasses import fields, is_dataclass

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
    assert (cfg.rwm.step_scale, cfg.rwm.tune) == (1.0, False)
    # exploration is on and truncation off unless a config says otherwise
    assert cfg.exploration is not None and cfg.truncation is None


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
        RunConfig.from_dict(dict(MINIMAL, swap_quanta_prob=1.5))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, swap_strategy="roundrobin"))
    with pytest.raises(ConfigError):
        RunConfig.from_dict(dict(MINIMAL, truncation={"level": 1.0}))
    with pytest.raises(ConfigError, match="beta_hot"):
        RunConfig.from_dict(dict(MINIMAL, ladder={"betas": [1.0],
                                                  "beta_hot": 2.0}))
    for step in (0, -1.0, [1.0, -2.0]):
        with pytest.raises(ConfigError, match="step_scale"):
            RunConfig.from_dict(dict(MINIMAL, rwm={"step_scale": step}))
    for attempts in (0, -3):
        with pytest.raises(ConfigError, match="max_bootstrap_attempts"):
            RunConfig.from_dict(dict(
                MINIMAL, exploration={"max_bootstrap_attempts": attempts}))
    with pytest.raises(ConfigError, match="exploration"):
        RunConfig.from_dict(dict(MINIMAL, exploration={"step_scale": 0.0}))
    with pytest.raises(ConfigError, match="refresh_from_modes"):
        RunConfig.from_dict(dict(MINIMAL,
                                 exploration={"refresh_from_modes": 2.0}))


def test_swap_strategy_even_odd_accepted():
    cfg = RunConfig.from_dict(dict(MINIMAL, swap_strategy="even_odd"))
    assert cfg.swap_strategy == "even_odd"


def test_derived_quantities():
    cfg = RunConfig.from_dict(dict(MINIMAL, v=5, total_target_samples=101,
                                   burnin_samples=10))
    assert cfg.n_sweeps == 21
    assert cfg.burnin_sweeps == 2
    assert cfg.n_swaps == 1


def test_step_scales_broadcast_and_length_check():
    cfg = RunConfig.from_dict(dict(MINIMAL, rwm={"step_scale": 0.5}))
    assert cfg.rwm.step_scales(4) == [0.5] * 4
    cfg = RunConfig.from_dict(dict(MINIMAL,
                                   rwm={"step_scale": [0.5, 0.25]}))
    assert cfg.rwm.step_scales(2) == [0.5, 0.25]
    with pytest.raises(ConfigError, match="expected 3 entries"):
        cfg.rwm.step_scales(3)
    # a list that does not match the ladder fails at parse time, before
    # a run could start its mode search
    with pytest.raises(ConfigError,
                       match="rwm.step_scale: expected 2 entries, got 3"):
        RunConfig.from_dict(dict(MINIMAL, rwm={"step_scale": [0.5] * 3}))


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
    assert cfg.n_swaps == 6 and cfg.v == 5
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


def test_presence_of_a_section_is_its_switch():
    assert RunConfig.from_dict(preset_dict("sur-grunfeld")).truncation.level \
        == 0.9999
    assert RunConfig.from_dict(preset_dict("synthetic-20d")).truncation is None
    assert RunConfig.from_dict(dict(MINIMAL, truncation={})).truncation.level \
        == 0.9999
    assert RunConfig.from_dict(dict(MINIMAL, exploration=None)).exploration \
        is None


def leaf_settings(section, prefix=""):
    names = []
    for f in fields(section):
        value = getattr(section, f.name)
        if is_dataclass(value):
            names += leaf_settings(value, f"{prefix}{f.name}.")
        else:
            names.append(prefix + f.name)
    return names


def test_settable_values_are_pinned():
    # a new setting must show up here as a visible test edit
    cfg = RunConfig.from_dict(dict(MINIMAL, truncation={}))
    assert leaf_settings(cfg) == [
        "target.name", "target.params", "ladder.betas", "ladder.beta_hot",
        "seed", "v", "swap_quanta_prob", "swap_strategy",
        "rwm.step_scale", "rwm.tune",
        "exploration.step_scale", "exploration.n_hot_chains",
        "exploration.refresh_from_modes",
        "exploration.max_bootstrap_attempts",
        "truncation.level", "total_target_samples", "burnin_samples",
        "init", "initial_modes", "running_threshold", "out_dir"]
