"""Run orchestration: one sweep driver for ALPS and both baselines.

A run type is the list of phases one sweep applies, in order:

- ALPS: RWM at HAT levels 0..n-1, mode leaps at level n, swaps (QuanTA
  with probability swap_quanta_prob, else standard), exploration, and
  the mode allocations of levels 0 and n.
- PT: RWM at power-tempered levels 0..n, standard swaps, and the
  nearest component locations of levels 0 and n.
- LAIS: mode leaps at level 0, exploration, and the allocation of
  level 0.  It is ALPS on a one-level ladder whose leap-local RWM step
  is tuned.

RWM and leap phases make v updates per level.  Level-0 states are
recorded after every level-0 update, so total_target_samples = v * sweeps.

The RWM phase advances its levels in lockstep, one (L, dim) block of
draws per repetition.  Each level draws from its own `level_stream`:
its z ~ N(0, I) into its row of the block, then its acceptance uniform.
On power levels the proposals of all levels are then one array
operation and one `log_density_batch` call; HAT levels propose with
their mode's Cholesky step and evaluate one by one.  Each level then
decides.  Because every stream is keyed on (level, sweep), the draws,
and hence the run, are those of updating the levels one after another.

The swap phase draws from the sweep's swap stream: under the "uniform"
strategy the s pair indices first, in one call, then the s decisions'
uniforms in one call, in order, one row per swap.  On HAT levels a row
is (coin, u): the coin picks QuanTA or standard, u decides; on power
levels a row is u alone.
"""

from __future__ import annotations

import logging
import time
from functools import partial

import numpy as np

from . import outputs
from .config import ConfigError, RunConfig
from .density import PowerTarget, TargetDensity
from .diagnostics import (HOT, LEAP, LEAP_LOCAL, RWM, SWAP_QUANTA,
                          SWAP_STANDARD, RunDiagnostics)
from .exploration import (NOT_CONVERGED, REJECTED, ExplorationConfig,
                          hessian_at, mfind)
from .hat import HatTarget, TruncatedHatTarget, chi2_quantile
from .kernels import (mode_leap_core, quanta_swap_core, rwm_core,
                      rwm_evaluate, rwm_propose, standard_swap_core)
# perfbench/tracer.py counts the sweep's RWM updates, one decision each,
# through this name
from .kernels import rwm_decide as rwm_core_alloc
from .optimize import local_optimize
from .registry import (IndefiniteHessianError, ModeRegistry,
                       covariance_from_hessian, make_mode_info, try_insert)
from .rng import EXPLORE_STREAM, LEAP_STREAM, SWAP_STREAM, StreamFactory

logger = logging.getLogger(__name__)

_BOOTSTRAP_COUNTER_BASE = 1 << 62


class NumericalAbort(RuntimeError):
    """Target evaluation failed mid-run; message carries sweep context."""


def _initial_point(config: RunConfig, dim: int) -> np.ndarray:
    if config.init is None:
        return np.zeros(dim)
    x0 = np.asarray(config.init, dtype=float)
    if x0.shape != (dim,):
        raise ConfigError(f"init has shape {x0.shape}, expected ({dim},)")
    return x0


def _register_point_as_mode(point: np.ndarray, target: TargetDensity,
                            registry: ModeRegistry) -> None:
    """Polish a candidate point and offer it to the registry."""
    mu, converged = local_optimize(np.asarray(point, dtype=float), target)
    if not converged:
        logger.warning("initial mode candidate did not converge; skipped")
        return
    try:
        sigma, _, _ = covariance_from_hessian(hessian_at(target, mu))
    except (ValueError, IndefiniteHessianError) as err:
        logger.warning("initial mode candidate rejected: %s", err)
        return
    try_insert(registry, make_mode_info(mu, sigma, target.log_density(mu)))


def _exploration_config(config: RunConfig) -> ExplorationConfig | None:
    ec = config.exploration
    if ec is None or not ec.enabled:
        return None
    if config.ladder.beta_hot is None:
        raise ConfigError("exploration requires ladder.beta_hot")
    return ExplorationConfig(beta_hot=config.ladder.beta_hot, v=config.v,
                             step_scale=ec.step_scale,
                             n_hot_chains=ec.n_hot_chains,
                             refresh_from_modes=ec.refresh_from_modes)


def _swap_schedule(strategy: str, n_pairs: int, n_swaps: int, sweep: int,
                   rng) -> list:
    """Pair indices for one sweep's swap phase.

    "uniform" draws each pair index independently; "even_odd" cycles
    deterministically through even-indexed then odd-indexed pairs,
    alternating the starting block between sweeps so neighbouring swaps
    compose into systematic up/down passes of the ladder.
    """
    if strategy == "uniform":
        return rng.integers(0, n_pairs, size=n_swaps).tolist()
    even = list(range(0, n_pairs, 2))
    odd = list(range(1, n_pairs, 2))
    blocks = [even, odd] if sweep % 2 == 0 else [odd, even]
    out: list = []
    i = 0
    while len(out) < n_swaps:
        out.extend(blocks[i % 2] or blocks[(i + 1) % 2])
        i += 1
    return out[:n_swaps]


class _Run:
    """Chains, ladder and diagnostics of one run, shared by its phases.

    With `hat` the levels are HAT targets on a mode registry filled from
    config.initial_modes or else by bootstrap exploration; without it
    they are the plain powers pi^beta, there is no registry, and each
    chain carries log pi of its state in `logpis` (None on HAT levels).
    """

    def __init__(self, config: RunConfig, target: TargetDensity,
                 betas: np.ndarray, hat: bool):
        if config.out_dir:
            outputs.prepare_out_dir(config.out_dir)
        d = target.dim
        self.config, self.target, self.betas = config, target, betas
        self.n = betas.size - 1
        self.freeze = config.freeze_at_sweep
        self.stage = "setup"
        self.diag = RunDiagnostics(d, config.n_sweeps * config.v)
        self.factory = StreamFactory(config.seed)
        self.registry = self.ec_cfg = self.snapshot = self.trunc_radius = None
        self.logpis = None
        x0 = _initial_point(config, d)
        self.xs = [x0.copy() for _ in range(self.n + 1)]
        if hat:
            self._find_modes(x0)
            if config.truncation and config.truncation.enabled:
                self.trunc_radius = chi2_quantile(config.truncation.level, d)
        self.build_levels()
        self.step_scales = np.array(config.rwm.step_scales(self.n + 1))
        self.locations = getattr(target, "component_locations", None)

    def _find_modes(self, x0: np.ndarray) -> None:
        config = self.config
        self.registry = ModeRegistry(dim=self.target.dim,
                                     tol=config.registry_tol)
        self.ec_cfg = _exploration_config(config)
        for point in config.initial_modes or []:
            _register_point_as_mode(np.asarray(point, dtype=float),
                                    self.target, self.registry)
        n_chains = self.ec_cfg.n_hot_chains if self.ec_cfg else 1
        self.hot_states = [x0.copy() for _ in range(n_chains)]
        if self.registry.n_modes == 0:
            if self.ec_cfg is None:
                raise ConfigError("no modes discovered (registry empty and "
                                  "exploration disabled)")
            self._bootstrap(config.exploration.max_bootstrap_attempts,
                            n_chains)
        if self.ec_cfg is not None:
            self.hot_target = PowerTarget(self.target, self.ec_cfg.beta_hot)
            self.hot_logps = [self.hot_target.log_density(s)
                              for s in self.hot_states]

    def _bootstrap(self, attempts: int, n_chains: int) -> None:
        """Search until a first mode is registered; abort after `attempts`
        searches, saying why each one failed."""
        for attempt in range(attempts):
            rng = self.factory.stream(EXPLORE_STREAM,
                                      _BOOTSTRAP_COUNTER_BASE + attempt)
            if self.search(attempt % n_chains, -1, attempt, rng):
                return
        records = self.diag.discovery_log  # the bootstrap's searches
        statuses = [rec["status"] for rec in records]
        message = (f"no modes discovered after {attempts} bootstrap "
                   f"exploration attempts: "
                   f"{statuses.count(NOT_CONVERGED)} ascents did not "
                   f"converge, {statuses.count(REJECTED)} Hessians rejected")
        reasons = [rec["reason"] for rec in records if "reason" in rec]
        if reasons:
            message += f" (last: {reasons[-1]})"
        raise NumericalAbort(message)

    def search(self, chain: int, sweep: int, iteration: int, rng) -> bool:
        """One logged mfind call from hot chain `chain`."""
        record: dict = {}
        self.hot_states[chain], self.registry, found = mfind(
            self.hot_states[chain], self.registry, self.target, self.ec_cfg,
            rng, log_cb=record.update)
        self.diag.discovery_log.append(
            {"sweep": sweep, "iteration": iteration, **record})
        if found:
            self.diag.registry_events.append(
                {"sweep": sweep, "version": self.registry.version,
                 "n_modes": self.registry.n_modes})
        return found

    def build_levels(self) -> None:
        """Level targets on the current registry snapshot (plain powers
        without a registry) and the chains' log densities under them."""
        if self.registry is None:
            self.level_targets = [PowerTarget(self.target, b)
                                  for b in self.betas]
            values = [lt.value_and_base(x)
                      for lt, x in zip(self.level_targets, self.xs)]
            self.logps = [value for value, _ in values]
            self.logpis = [logpi for _, logpi in values]
            return
        self.snapshot = self.registry.snapshot()
        self.level_targets = []
        for beta in self.betas:
            level = HatTarget(self.target, self.snapshot, float(beta))
            if self.trunc_radius is not None and beta > 1.0:
                level = TruncatedHatTarget(level, self.trunc_radius)
            self.level_targets.append(level)
        self.logps = [lt.log_density(x)
                      for lt, x in zip(self.level_targets, self.xs)]
        # states stranded outside a (new) truncation region restart at the
        # dominant mode point, whose HAT value is finite at every level
        for k, lp in enumerate(self.logps):
            if not np.isfinite(lp):
                snap = self.snapshot
                self.xs[k] = snap.mus[int(np.argmax(snap.log_weights))].copy()
                self.logps[k] = self.level_targets[k].log_density(self.xs[k])

    def tune(self, levels, rates, sweep: int) -> None:
        """Robbins-Monro step of each level's log step scale toward the
        target acceptance rate, all levels in one array operation, until
        adaptation freezes."""
        rwm = self.config.rwm
        if not rwm.tune or sweep >= self.freeze:
            return
        levels = np.asarray(levels)
        gamma = 1.0 / (1.0 + sweep) ** 0.6
        log_steps = np.log(self.step_scales[levels])
        self.step_scales[levels] = np.clip(
            np.exp(log_steps + gamma * (np.asarray(rates) - rwm.tune_target)),
            1e-8, 1e8)


# Phases: each takes (run, sweep index) and advances the run in place.
# They look kernels up in this module's namespace at call time, so
# wrappers installed on those names see every call.

def _draw_rwm(rngs: list, Z: np.ndarray) -> list:
    """Each level's z into its row of Z, then its uniform; returns the
    uniforms."""
    us = []
    for rng, z in zip(rngs, Z):
        rng.standard_normal(out=z)
        us.append(rng.random())
    return us


def _rwm_phase(run: _Run, t: int, levels: range) -> None:
    """v RWM updates per level, the levels in lockstep (see the module
    docstring); the tallies are counted and the step scales tuned once
    per level after the last repetition."""
    if not levels:
        return
    v = run.config.v
    rngs = [run.factory.level_stream(k, t) for k in levels]
    Z = np.empty((len(levels), run.target.dim))
    reps = _power_rwm_reps if run.logpis else _hat_rwm_reps
    accepted = reps(run, levels, rngs, Z)
    for k, acc in zip(levels, accepted.tolist()):
        run.diag.count(RWM, k, acc, v)
    run.tune(levels, accepted / v, t)


def _power_rwm_reps(run: _Run, levels: range, rngs: list,
                    Z: np.ndarray) -> np.ndarray:
    """The v repetitions on power levels: the proposals are X + S*Z, one
    `log_density_batch` call on the base target gives their log pi, and
    level k's value is beta_k * log pi, the product its `PowerTarget`
    returns.  Each chain carries (state, value, log pi); returns the
    accept counts."""
    targets = [run.level_targets[k] for k in levels]
    X = np.array([run.xs[k] for k in levels])
    S = run.step_scales[levels][:, None]
    betas = np.array([target.beta for target in targets])
    logps = [run.logps[k] for k in levels]
    logpis = [run.logpis[k] for k in levels]
    steps = S.ravel().tolist()
    accepted = np.zeros(len(levels), dtype=int)
    span = f"levels {levels[0]}-{levels[-1]}"
    for r in range(run.config.v):
        run.stage = f"rwm rep {r}, {span}"
        us = _draw_rwm(rngs, Z)
        Y, _ = rwm_propose(X, targets[0], S, Z)
        logpi_ys = run.target.log_density_batch(Y)
        logp_ys = (betas * logpi_ys).tolist()
        logpi_ys = logpi_ys.tolist()
        acc = np.zeros(len(levels), dtype=bool)
        for i, target in enumerate(targets):
            _, logps[i], logpis[i], acc[i] = rwm_core_alloc(
                X[i], logps[i], logpis[i], Y[i], us[i], logp_ys[i],
                logpi_ys[i], target, steps[i])
        np.copyto(X, Y, where=acc[:, None])
        accepted += acc
        if levels[0] == 0:
            run.diag.record_sample(X[0])
    for i, k in enumerate(levels):
        run.xs[k], run.logps[k], run.logpis[k] = X[i], logps[i], logpis[i]
    return accepted


def _hat_rwm_reps(run: _Run, levels: range, rngs: list,
                  Z: np.ndarray) -> np.ndarray:
    """The v repetitions on HAT levels: each level proposes with its
    allocated mode's Cholesky step and evaluates on its own.  Each chain
    carries the allocation of its state, found by its first proposal;
    returns the accept counts."""
    xs, logps, targets = run.xs, run.logps, run.level_targets
    steps = run.step_scales.tolist()
    allocs = [None] * len(levels)
    accepted = np.zeros(len(levels), dtype=int)
    span = f"levels {levels[0]}-{levels[-1]}"
    for r in range(run.config.v):
        run.stage = f"rwm rep {r}, {span}"
        us = _draw_rwm(rngs, Z)
        for i, k in enumerate(levels):
            y, a_x = rwm_propose(xs[k], targets[k], steps[k], Z[i], allocs[i])
            logp_y, a_y = rwm_evaluate(targets[k], y)
            xs[k], logps[k], allocs[i], acc = rwm_core_alloc(
                xs[k], logps[k], a_x, y, us[i], logp_y, a_y, targets[k],
                steps[k])
            accepted[i] += acc
        if levels[0] == 0:
            run.diag.record_sample(xs[0])
    return accepted


def _leap_phase(run: _Run, t: int, tune_local: bool) -> None:
    """Mode leaps at level n; `tune_local` adapts the local moves' step."""
    n = run.n
    run.stage = f"leap level {n}"
    rng = run.factory.stream(LEAP_STREAM, t)
    accepted_local = n_local = 0
    for _ in range(run.config.v):
        run.xs[n], run.logps[n], move_type, acc = mode_leap_core(
            run.xs[n], run.logps[n], run.level_targets[n],
            run.step_scales[n], rng)
        run.diag.count(LEAP if move_type == "leap" else LEAP_LOCAL, n, acc)
        if move_type == "local":
            accepted_local += int(acc)
            n_local += 1
        if n == 0:
            run.diag.record_sample(run.xs[0])
    if tune_local and n_local:
        run.tune([n], [accepted_local / n_local], t)


def _swap_phase(run: _Run, t: int) -> None:
    """s neighbour swaps; on HAT levels a coin picks QuanTA or standard
    for each, on power levels all are standard, no coin is drawn and the
    carried log pi values price the swaps and move with the states.  The
    schedule and the uniforms are drawn up front (see the module
    docstring)."""
    config, n = run.config, run.n
    if n < 1 or config.n_swaps == 0:
        return
    run.stage = "swaps"
    rng = run.factory.stream(SWAP_STREAM, t)
    hat = run.snapshot is not None
    schedule = _swap_schedule(config.swap_strategy, n, config.n_swaps, t, rng)
    draws = rng.random((config.n_swaps, 2 if hat else 1)).tolist()
    xs, logps, logpis = run.xs, run.logps, run.logpis
    targets = run.level_targets
    for k, row in zip(schedule, draws):
        u = row[-1]
        if hat and row[0] < config.swap_quanta_prob:
            res = quanta_swap_core(xs[k], xs[k + 1], logps[k], logps[k + 1],
                                   targets[k], targets[k + 1], u)
            run.diag.count(SWAP_QUANTA, k, res.accepted)
        else:
            res = standard_swap_core(
                xs[k], xs[k + 1], logps[k], logps[k + 1], targets[k],
                targets[k + 1], u,
                (logpis[k], logpis[k + 1]) if logpis else None)
            run.diag.count(SWAP_STANDARD, k, res.accepted)
            if logpis and res.accepted:
                logpis[k], logpis[k + 1] = logpis[k + 1], logpis[k]
        xs[k], xs[k + 1] = res.x_low, res.x_high
        logps[k], logps[k + 1] = res.logp_low, res.logp_high


def _explore(run: _Run, t: int) -> None:
    if run.ec_cfg is not None:
        run.stage = "exploration"
        _exploration_phase(run, t)


def _exploration_phase(run: _Run, t: int) -> None:
    """Until adaptation freezes, chain t mod n_chains runs a full mode
    search; every other chain takes v + 1 plain hot RWM updates."""
    rng = run.factory.stream(EXPLORE_STREAM, t)
    n_chains = len(run.hot_states)
    active = t % n_chains if t < run.freeze else -1
    for c in range(n_chains):
        if c == active:
            run.search(c, t, c, rng)
            run.hot_logps[c] = run.hot_target.log_density(run.hot_states[c])
        else:
            for _ in range(run.ec_cfg.v + 1):
                run.hot_states[c], run.hot_logps[c], acc = rwm_core(
                    run.hot_states[c], run.hot_logps[c], run.hot_target,
                    run.ec_cfg.step_scale, rng)
                run.diag.count(HOT, -1, acc)


def _hat_visits(run: _Run, t: int) -> None:
    run.stage = "bookkeeping"
    diag, n = run.diag, run.n
    diag.mode_visits_level0.append(
        run.level_targets[0].allocate_index(run.xs[0]))
    diag.mode_visits_top.append(
        diag.mode_visits_level0[-1] if n == 0
        else run.level_targets[n].allocate_index(run.xs[n]))


def _nearest_visits(run: _Run, t: int) -> None:
    if run.locations is not None:
        for visits, x in ((run.diag.mode_visits_level0, run.xs[0]),
                          (run.diag.mode_visits_top, run.xs[run.n])):
            sq_dist = np.sum((run.locations - x) ** 2, axis=1)
            visits.append(int(np.argmin(sq_dist)))


def _drive(config: RunConfig, target: TargetDensity, betas: np.ndarray,
           hat: bool, phases: tuple):
    """Set up a run and apply `phases` in order every sweep."""
    run = _Run(config, target, betas, hat)
    diag = run.diag
    for t in range(config.n_sweeps):
        t_start = time.perf_counter()
        run.stage = "setup"
        try:
            if hat and run.registry.version != run.snapshot.version:
                run.build_levels()
            for phase in phases:
                phase(run, t)
        except (ValueError, FloatingPointError, np.linalg.LinAlgError) as err:
            raise NumericalAbort(f"sweep {t}, {run.stage}: {err}") from err
        diag.sweep_seconds += time.perf_counter() - t_start
        diag.n_sweeps += 1

    diag.tuned_step_scales = run.step_scales.tolist()
    diag.registry = run.registry
    return diag.samples[:config.total_target_samples], diag


def alps_run(config: RunConfig, target: TargetDensity):
    """Annealed leap-point sampling; returns (level-0 samples, diagnostics)."""
    betas = np.asarray(config.ladder.betas, dtype=float)
    if betas[0] != 1.0 or np.any(np.diff(betas) <= 0):
        raise ConfigError("annealing ladder must start at 1 and increase")
    return _drive(config, target, betas, hat=True, phases=(
        partial(_rwm_phase, levels=range(betas.size - 1)),
        partial(_leap_phase, tune_local=False),
        _swap_phase, _explore, _hat_visits))


def pt_run(config: RunConfig, target: TargetDensity):
    """Classic parallel tempering on power-tempered targets."""
    betas = np.asarray(config.ladder.betas, dtype=float)
    if betas[0] != 1.0 or (betas.size > 1 and np.any(np.diff(betas) >= 0)):
        raise ConfigError("tempering ladder must start at 1 and decrease")
    return _drive(config, target, betas, hat=False, phases=(
        partial(_rwm_phase, levels=range(betas.size)),
        _swap_phase, _nearest_visits))


def lais_run(config: RunConfig, target: TargetDensity):
    """Laplace-mixture independence sampling at the target temperature.

    The non-annealing variant: exploration finds modes, and level 0
    alternates local RWM with mixture leaps driven by q at beta = 1.
    """
    betas = np.asarray(config.ladder.betas, dtype=float)
    if betas.size != 1 or betas[0] != 1.0:
        raise ConfigError("this sampler runs a single level at beta = 1")
    return _drive(config, target, betas, hat=True, phases=(
        partial(_leap_phase, tune_local=True), _explore, _hat_visits))
