"""Run configuration: strict JSON-compatible schema plus named presets.

Unknown keys anywhere in the document are errors (fail fast); the seed
is mandatory so no run ever depends on entropy.  Numbers must be finite.

An optional section is switched by its presence alone: exploration runs
unless `"exploration": null`, truncation runs only with a `"truncation"`
object.

Some values of a run are fixed or derived rather than set, because every
preset uses the one value:

- within-level updates per sweep: `V` = 5 RWM steps per level, and
  then V mode leaps at the ALPS top level; a sweep records V level-0
  samples, one per RWM step, so `n_sweeps` and `burnin_sweeps` are the
  sample counts over V, rounded up;
- one hot chain of exploration (`runner._Run.hot_state`);
- swaps per sweep: `n_levels - 1` (`RunConfig.n_swaps`), one per
  neighbour pair of the ladder;
- the swap schedule: deterministic even-odd (DEO; Syed et al.,
  arXiv:1905.02939), every sweep the even pairs (0-1, 2-3, ...) and
  then the odd ones (`runner._swap_phase`), which keeps the rate of
  ladder round trips from decaying as levels are added;
- the swap kind: QuanTA (Tawn & Roberts, Adv. Appl. Prob. 2019) on
  every pair of HAT levels, standard swaps on power levels
  (`runner._swap_phase`); between HAT levels of the 20-d benchmark
  standard swaps accept under 1% of proposals, QuanTA about half;
- the freeze of adaptation (step tuning and mode search): the end of
  burn-in, `burnin_sweeps`, so the sampled part runs on a fixed ladder;
- step tuning: every level's RWM step, the top level's included, is
  tuned until the freeze, so the LAIS baseline is ALPS on the ladder
  [1.0];
- the hot chain: it moves and searches until the freeze and stops there;
- the bootstrap's budget: 2000 searches
  (`runner.MAX_BOOTSTRAP_ATTEMPTS`);
- the registry's dedup tolerance: 1 + sqrt(2/d)
  (`registry.default_tol`), which scales with the target's dimension;
- the initial RWM step: 2.38/sqrt(d) in each level's units
  (`runner.RWM_INITIAL_STEP`), and the RWM tuning target: an acceptance
  rate of 0.234 (`runner.RWM_TUNE_TARGET`), both optimal for RWM in high
  dimension (Roberts, Gelman & Gilks 1997);
- trace thinning: every 10th sample goes to trace.csv
  (`outputs.TRACE_THINNING`).
"""

from __future__ import annotations

import copy
import json
import sys
from dataclasses import dataclass, field, fields
from typing import Optional

from .rng import SEED_LIMIT

# within-level updates per level and sweep (see the module docstring)
V = 5


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


def _require_int(value, key: str) -> None:
    """ConfigError unless value is an integer (a JSON integer; not a bool
    or a float)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer")


def _require_seed(value) -> None:
    """ConfigError unless value is an integer in [0, 2^64), the seeds
    that key distinct Philox streams (`rng.substream`)."""
    _require_int(value, "seed")
    if not 0 <= value < SEED_LIMIT:
        raise ConfigError("seed must be a non-negative integer below 2^64")


def _require_number(value, key: str, optional: bool = False) -> None:
    """ConfigError unless value is a finite number (a JSON integer or
    float; not a bool, a string, NaN, an infinity or an integer beyond
    the float range), or None where the setting is optional."""
    if optional and value is None:
        return
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number")
    # false for NaN, the infinities and integers too large for a float
    if not abs(value) <= sys.float_info.max:
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
    """Present in a config, it runs the hot chain and the mode search;
    `"exploration": null` turns exploration off."""

    step_scale: float = 1.0
    refresh_from_modes: float = 0.0

    def __post_init__(self):
        for key in ("step_scale", "refresh_from_modes"):
            _require_number(getattr(self, key), f"exploration.{key}")
        if self.step_scale <= 0:
            raise ConfigError("exploration.step_scale must be positive")
        if not 0.0 <= self.refresh_from_modes <= 1.0:
            raise ConfigError("exploration.refresh_from_modes must be a probability")


@dataclass
class RunConfig:
    target: TargetSpec
    ladder: LadderConfig
    seed: int
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
        _require_seed(self.seed)
        for key in ("total_target_samples", "burnin_samples"):
            _require_int(getattr(self, key), key)
        _require_number(self.running_threshold, "running_threshold",
                        optional=True)
        if self.total_target_samples < 0 or self.burnin_samples < 0:
            raise ConfigError("sample counts must be non-negative")
        if not isinstance(self.initial_modes, (list, type(None))):
            raise ConfigError("initial_modes must be a list of points")
        if not isinstance(self.out_dir, (str, type(None))):
            raise ConfigError("out_dir must be a string")

    # Derived quantities -------------------------------------------------
    @property
    def n_levels(self) -> int:
        return len(self.ladder.betas)

    @property
    def n_swaps(self) -> int:
        return self.n_levels - 1

    @property
    def n_sweeps(self) -> int:
        return -(-self.total_target_samples // V)  # ceil division

    @property
    def burnin_sweeps(self) -> int:
        return -(-self.burnin_samples // V)

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
                ("truncation", TruncationSettings, True),
                ("exploration", ExplorationSettings, True)):
            if key in obj and not (optional and obj[key] is None):
                obj[key] = _build(section, obj[key], key)
        return _build(cls, obj, "config")


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
        "exploration": {"step_scale": 120.0, "refresh_from_modes": 0.0},
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
        "exploration": None,
        "total_target_samples": 200000,
        "burnin_samples": 15000,
        "init": [20.0] * 20,
        "running_threshold": 0.5,
    }


def _benchmark_lais_preset() -> dict:
    return deep_merge(_benchmark_preset(), {"ladder": {"betas": [1.0]}})


def _sur_grunfeld_preset() -> dict:
    return {
        "target": {"name": "sur_grunfeld", "params": {"first_years": 15}},
        "ladder": {"beta_hot": 0.067,
                   "betas": [1.00, 1.10, 1.40, 1.96, 2.74, 3.84, 5.38]},
        "seed": 1,
        "exploration": {"step_scale": 40.0, "refresh_from_modes": 0.25},
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
