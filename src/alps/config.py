"""Run configuration: strict JSON-compatible schema plus named presets.

Unknown keys anywhere in the document are errors (fail fast); the seed
is mandatory so no run ever depends on entropy.  Numbers must be finite.

An optional section is switched by its presence alone: exploration runs
unless `"exploration": null`, truncation runs only with a `"truncation"`
object.

Some values of a run are fixed or derived rather than set, because every
preset uses the one value:

- swaps per sweep: `n_levels - 1` (`RunConfig.n_swaps`), one per
  neighbour pair of the ladder;
- the freeze of adaptation (step tuning and mode search): the end of
  burn-in, `burnin_sweeps`, so the sampled part runs on a fixed ladder;
- the registry's dedup tolerance: 1 + sqrt(2/d)
  (`registry.default_tol`), which scales with the target's dimension;
- the RWM tuning target: an acceptance rate of 0.234
  (`runner.RWM_TUNE_TARGET`), optimal for RWM in high dimension (Roberts,
  Gelman & Gilks 1997);
- trace thinning: every 10th sample goes to trace.csv
  (`outputs.TRACE_THINNING`).
"""

from __future__ import annotations

import copy
import json
import math
from dataclasses import dataclass, field, fields
from typing import Optional

import numpy as np


class ConfigError(ValueError):
    pass


def _build(cls, obj: dict, path: str):
    """Instantiate a dataclass from a dict, rejecting unknown keys."""
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    known = {f.name for f in fields(cls)}
    extra = set(obj) - known
    if extra:
        raise ConfigError(f"{path}: unknown key(s) {sorted(extra)}")
    try:
        return cls(**obj)
    except TypeError as err:  # e.g. a string where a number belongs
        raise ConfigError(f"{path}: {err}") from err


def _require_int(value, key: str, optional: bool = False) -> None:
    """ConfigError unless value is an integer (a JSON integer; not a bool
    or a float), or None where the setting is optional."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer")


def _require_number(value, key: str, optional: bool = False) -> None:
    """ConfigError unless value is a finite number (a JSON integer or
    float; not a bool, a string, NaN or an infinity), or None where the
    setting is optional."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    if not math.isfinite(value):
        raise ConfigError(f"{key} must be finite")


@dataclass
class TargetSpec:
    name: str
    params: dict = field(default_factory=dict)


@dataclass
class LadderConfig:
    betas: list
    beta_hot: Optional[float] = None

    def __post_init__(self):
        if not self.betas:
            raise ConfigError("ladder.betas must be non-empty")
        for beta in self.betas:
            _require_number(beta, "ladder.betas")
        _require_number(self.beta_hot, "ladder.beta_hot", optional=True)
        self.betas = [float(b) for b in self.betas]
        if any(b <= 0 for b in self.betas):
            raise ConfigError("ladder.betas must be positive")
        if self.beta_hot is not None and not 0.0 < self.beta_hot < 1.0:
            raise ConfigError("ladder.beta_hot must lie in (0, 1)")


@dataclass
class RwmSettings:
    step_scale: float | list = 1.0    # one per level, or one for all
    tune: bool = False

    def __post_init__(self):
        scales = ([self.step_scale]
                  if isinstance(self.step_scale, (int, float))
                  else self.step_scale)
        for scale in scales:
            _require_number(scale, "rwm.step_scale")
        if not all(s > 0 for s in scales):
            raise ConfigError("rwm.step_scale must be positive numbers")

    def step_scales(self, n_levels: int) -> list:
        if isinstance(self.step_scale, (int, float)):
            return [float(self.step_scale)] * n_levels
        if len(self.step_scale) != n_levels:
            raise ConfigError(f"rwm.step_scale: expected {n_levels} entries, "
                              f"got {len(self.step_scale)}")
        return [float(s) for s in self.step_scale]


@dataclass
class TruncationSettings:
    """Present in a config, it truncates the levels with beta > 1 at the
    chi-squared quantile `level` (see `runner._Run`)."""

    level: float = 0.9999

    def __post_init__(self):
        _require_number(self.level, "truncation.level")
        if not 0.0 < self.level < 1.0:
            raise ConfigError("truncation.level must be in (0, 1)")


@dataclass
class ExplorationSettings:
    """Present in a config, it runs the hot chains and the mode search;
    `"exploration": null` turns exploration off."""

    step_scale: float = 1.0
    n_hot_chains: int = 1
    refresh_from_modes: float = 0.0
    max_bootstrap_attempts: int = 2000

    def __post_init__(self):
        for key in ("n_hot_chains", "max_bootstrap_attempts"):
            _require_int(getattr(self, key), f"exploration.{key}")
        for key in ("step_scale", "refresh_from_modes"):
            _require_number(getattr(self, key), f"exploration.{key}")
        if self.step_scale <= 0 or self.n_hot_chains < 1:
            raise ConfigError("invalid exploration settings")
        if not 0.0 <= self.refresh_from_modes <= 1.0:
            raise ConfigError("exploration.refresh_from_modes must be a probability")
        if self.max_bootstrap_attempts < 1:
            raise ConfigError("exploration.max_bootstrap_attempts must be at least 1")


@dataclass
class RunConfig:
    target: TargetSpec
    ladder: LadderConfig
    seed: int
    v: int = 5
    swap_quanta_prob: float = 0.5
    swap_strategy: str = "uniform"    # "uniform" | "even_odd"
    rwm: RwmSettings = field(default_factory=RwmSettings)
    exploration: Optional[ExplorationSettings] = field(
        default_factory=ExplorationSettings)
    truncation: Optional[TruncationSettings] = None
    total_target_samples: int = 10000
    burnin_samples: int = 0
    init: Optional[list] = None
    initial_modes: Optional[list] = None
    running_threshold: Optional[float] = None
    out_dir: Optional[str] = None

    def __post_init__(self):
        for key in ("seed", "v", "total_target_samples", "burnin_samples"):
            _require_int(getattr(self, key), key)
        _require_number(self.swap_quanta_prob, "swap_quanta_prob")
        _require_number(self.running_threshold, "running_threshold",
                        optional=True)
        if self.seed < 0:
            raise ConfigError("seed must be a non-negative integer")
        if self.v < 1:
            raise ConfigError("v must be at least 1")
        if self.total_target_samples < 0 or self.burnin_samples < 0:
            raise ConfigError("sample counts must be non-negative")
        if not 0.0 <= self.swap_quanta_prob <= 1.0:
            raise ConfigError("swap_quanta_prob must be a probability")
        if self.swap_strategy not in ("uniform", "even_odd"):
            raise ConfigError("swap_strategy must be 'uniform' or 'even_odd'")
        if not isinstance(self.initial_modes, (list, type(None))):
            raise ConfigError("initial_modes must be a list of points")
        self.rwm.step_scales(self.n_levels)  # a list must match the ladder

    # Derived quantities -------------------------------------------------
    @property
    def n_levels(self) -> int:
        return len(self.ladder.betas)

    @property
    def n_swaps(self) -> int:
        return self.n_levels - 1

    @property
    def n_sweeps(self) -> int:
        return -(-self.total_target_samples // self.v)  # ceil division

    @property
    def burnin_sweeps(self) -> int:
        return -(-self.burnin_samples // self.v)

    @classmethod
    def from_dict(cls, obj: dict) -> "RunConfig":
        if not isinstance(obj, dict):
            raise ConfigError("config root must be an object")
        obj = copy.deepcopy(obj)
        if "target" not in obj or "ladder" not in obj:
            raise ConfigError("config requires 'target' and 'ladder'")
        if "seed" not in obj:
            raise ConfigError("config requires 'seed' (no entropy default)")
        # null switches an optional section off; a mandatory one rejects it
        for key, section, optional in (
                ("target", TargetSpec, False), ("ladder", LadderConfig, False),
                ("rwm", RwmSettings, False),
                ("truncation", TruncationSettings, True),
                ("exploration", ExplorationSettings, True)):
            if key in obj and not (optional and obj[key] is None):
                obj[key] = _build(section, obj[key], key)
        return _build(cls, obj, "config")

    @classmethod
    def from_json(cls, text: str) -> "RunConfig":
        try:
            obj = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON: {err}") from err
        return cls.from_dict(obj)


def deep_merge(base: dict, override: dict) -> dict:
    """Recursive dict merge; scalars and lists in `override` win."""
    out = copy.deepcopy(base)
    for key, val in override.items():
        if isinstance(val, dict) and isinstance(out.get(key), dict):
            out[key] = deep_merge(out[key], val)
        else:
            out[key] = copy.deepcopy(val)
    return out


# ---------------------------------------------------------------------------
# Named presets.  Benchmark sizes follow the published experiment; tests
# shrink them via overrides.

def _benchmark_preset() -> dict:
    return {
        "target": {"name": "skew_normal_mixture_20d", "params": {}},
        "ladder": {"beta_hot": 5e-6,
                   "betas": [1.0, 4.0, 16.0, 64.0, 256.0, 1024.0, 4096.0]},
        "seed": 1,
        "v": 5,
        "swap_quanta_prob": 0.5,
        "rwm": {"step_scale": 2.38 / np.sqrt(20.0), "tune": True},
        "exploration": {"step_scale": 120.0, "n_hot_chains": 1,
                        "refresh_from_modes": 0.0},
        "total_target_samples": 200000,
        "burnin_samples": 15000,
        "init": [20.0] * 20,
        "initial_modes": [[20.0] * 20],
        "running_threshold": 0.5,
    }


def _benchmark_pt_preset() -> dict:
    return {
        "target": {"name": "skew_normal_mixture_20d", "params": {}},
        "ladder": {"betas": [0.6 ** k for k in range(14)]},
        "seed": 1,
        "v": 5,
        "rwm": {"step_scale": [2.38 / np.sqrt(20.0 * 0.6 ** k)
                               for k in range(14)],
                "tune": True},
        "exploration": None,
        "total_target_samples": 200000,
        "burnin_samples": 15000,
        "init": [20.0] * 20,
        "running_threshold": 0.5,
    }


def _benchmark_lais_preset() -> dict:
    return {
        "target": {"name": "skew_normal_mixture_20d", "params": {}},
        "ladder": {"beta_hot": 5e-6, "betas": [1.0]},
        "seed": 1,
        "v": 5,
        "rwm": {"step_scale": 2.38 / np.sqrt(20.0), "tune": True},
        "exploration": {"step_scale": 120.0},
        "total_target_samples": 200000,
        "burnin_samples": 15000,
        "init": [20.0] * 20,
        "initial_modes": [[20.0] * 20],
        "running_threshold": 0.5,
    }


def _sur_grunfeld_preset() -> dict:
    return {
        "target": {"name": "sur_grunfeld", "params": {"first_years": 15}},
        "ladder": {"beta_hot": 0.067,
                   "betas": [1.00, 1.10, 1.40, 1.96, 2.74, 3.84, 5.38]},
        "seed": 1,
        "v": 5,
        "swap_quanta_prob": 0.5,
        "rwm": {"step_scale": 2.38 / np.sqrt(15.0), "tune": True},
        "exploration": {"step_scale": 40.0, "n_hot_chains": 1,
                        "refresh_from_modes": 0.25},
        "truncation": {"level": 0.9999},
        "total_target_samples": 20000,
        "burnin_samples": 2000,
        "init": None,
    }


PRESETS = {
    "synthetic-20d": _benchmark_preset,
    "synthetic-20d-pt": _benchmark_pt_preset,
    "synthetic-20d-lais": _benchmark_lais_preset,
    "sur-grunfeld": _sur_grunfeld_preset,
}


def preset_dict(name: str) -> dict:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; available: "
                          f"{sorted(PRESETS)}")
    return PRESETS[name]()


def load_config(preset: str | None = None, config_path: str | None = None,
                seed: int | None = None, out_dir: str | None = None) -> RunConfig:
    """Resolve preset + file + CLI overrides into a validated RunConfig."""
    base: dict = {}
    if preset is not None:
        base = preset_dict(preset)
    if config_path is not None:
        try:
            with open(config_path, encoding="utf-8") as fh:
                text = fh.read()
        except OSError as err:
            raise ConfigError(f"cannot read config file: {err}") from err
        try:
            override = json.loads(text)
        except json.JSONDecodeError as err:
            raise ConfigError(f"invalid JSON in {config_path}: {err}") from err
        if not isinstance(override, dict):
            raise ConfigError("config root must be an object")
        base = deep_merge(base, override)
    if not base:
        raise ConfigError("no configuration given (need --preset or --config)")
    if seed is not None:
        base["seed"] = seed
    if out_dir is not None:
        base["out_dir"] = out_dir
    return RunConfig.from_dict(base)
