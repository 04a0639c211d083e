import json
from dataclasses import fields, is_dataclass

import numpy as np
import pytest

from alps.cli import main
from alps.config import (ConfigError, PRESETS, RunConfig, deep_merge,
                         load_config, preset_dict)
from alps.runner import _Run
from alps.targets import build_target

MINIMAL = {
    "target": {"name": "skew_normal_mixture_20d"},
    "ladder": {"betas": [1.0, 4.0]},
    "seed": 7,
}


def test_minimal_config_parses_with_defaults():
    cfg = RunConfig.from_dict(MINIMAL)
    assert cfg.seed == 7
    assert cfg.n_levels == 2
    assert cfg.n_swaps == 1
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
        RunConfig.from_dict(dict(MINIMAL, truncation={"level": 1.0}))
    with pytest.raises(ConfigError, match="beta_hot"):
        RunConfig.from_dict(dict(MINIMAL, ladder={"betas": [1.0],
                                                  "beta_hot": 2.0}))
    with pytest.raises(ConfigError, match="exploration"):
        RunConfig.from_dict(dict(MINIMAL, exploration={"step_scale": 0.0}))
    with pytest.raises(ConfigError, match="refresh_from_modes"):
        RunConfig.from_dict(dict(MINIMAL,
                                 exploration={"refresh_from_modes": 2.0}))


@pytest.mark.parametrize("strategy", ["uniform", "even_odd"])
def test_swap_strategy_is_an_unknown_key(tmp_path, capsys, strategy):
    # the swap schedule is fixed (DEO); the old setting is a config error
    with pytest.raises(ConfigError, match=r"unknown key\(s\) \['swap_strategy'\]"):
        RunConfig.from_dict(dict(MINIMAL, swap_strategy=strategy))
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(MINIMAL, swap_strategy=strategy)))
    assert main(["pt", "--config", str(path)]) == 2
    assert "swap_strategy" in capsys.readouterr().err


def test_derived_quantities():
    cfg = RunConfig.from_dict(dict(MINIMAL, total_target_samples=101,
                                   burnin_samples=10))
    assert cfg.n_sweeps == 21
    assert cfg.burnin_sweeps == 2
    assert cfg.n_swaps == 1


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
    assert cfg.n_swaps == 6
    assert cfg.total_target_samples == 200000
    pt = RunConfig.from_dict(preset_dict("synthetic-20d-pt"))
    assert pt.n_levels == 14
    np.testing.assert_allclose(pt.ladder.betas, [0.6 ** k for k in range(14)])
    assert pt.exploration is None
    # the initial RWM steps are 2.38/sqrt(d) in each level's units: HAT
    # levels scale by 1/sqrt(beta) in the proposal, power levels here
    target = build_target("skew_normal_mixture_20d", {})
    run = _Run(cfg, target, np.array(cfg.ladder.betas), hat=True)
    assert run.step_scales.tolist() == [2.38 / np.sqrt(20.0)] * 7
    run = _Run(pt, target, np.array(pt.ladder.betas), hat=False)
    assert run.step_scales.tolist() == [2.38 / np.sqrt(20.0 * 0.6 ** k)
                                        for k in range(14)]
    lais = RunConfig.from_dict(preset_dict("synthetic-20d-lais"))
    assert lais.ladder.betas == [1.0]
    assert lais.n_swaps == 0


def test_unknown_preset_rejected():
    with pytest.raises(ConfigError, match="unknown preset"):
        preset_dict("nope")


def test_load_config_merges_file_and_cli(tmp_path):
    p = tmp_path / "override.json"
    p.write_text(json.dumps({"total_target_samples": 50,
                             "exploration": {"refresh_from_modes": 0.25}}))
    cfg = load_config(preset="synthetic-20d", config_path=str(p), seed=42)
    assert cfg.total_target_samples == 50
    assert cfg.seed == 42
    assert cfg.exploration.refresh_from_modes == 0.25
    assert cfg.exploration.step_scale == 120.0  # preset value survives


def test_load_config_requires_some_source():
    with pytest.raises(ConfigError, match="no configuration"):
        load_config()
    with pytest.raises(ConfigError, match="cannot read"):
        load_config(config_path="/nonexistent/cfg.json")


def test_load_config_reports_parse_errors(tmp_path):
    path = tmp_path / "config.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match=f"invalid JSON in {path}: "):
        load_config(config_path=str(path))


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
        "seed", "exploration.step_scale", "exploration.refresh_from_modes",
        "truncation.level", "total_target_samples", "burnin_samples",
        "init", "initial_modes", "running_threshold", "out_dir"]
