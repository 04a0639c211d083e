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

Every ladder chain carries its record (x, log pi(x), qf(x)), qf(x)
being the quad forms of x against the registered modes (an empty row on
power levels), and its level value.  Swaps, QuanTA's allocations, leaps
and the mode visits read values and allocations off the records
(`hat.level_values`); only new points are evaluated.  A registry
rebuild recomputes qf and keeps log pi.  Every level, and the target of
the hot chains, is one `hat.Level`: a plain power without a snapshot, a
HAT level on the run's current snapshot, truncated at a finite radius
(the levels with beta > 1 when config.truncation is set).

The RWM phase advances its levels in lockstep, one (L, dim) block of
draws per repetition.  Each level draws from its own `level_stream`:
its z ~ N(0, I) into its row of the block, then its acceptance uniform.
The proposals of all levels are then one array operation (HAT levels
step by their allocated mode's Cholesky factor), one
`log_density_batch` call, one quad-form call and one `level_values`
call; each level then decides.  Because every stream is keyed on
(level, sweep), the draws, and hence the run, are those of updating the
levels one after another.

The swap phase makes one swap per neighbour pair, n_levels - 1 in all.
It draws from the sweep's swap stream: under the "uniform" strategy the
pair indices first, in one call, then the decisions' uniforms in one
call, in order, one row per swap.  On HAT levels a row is (coin, u): the
coin picks QuanTA or standard, u decides; on power levels a row is u
alone.

The run owns the hot chains of exploration (ALPS and LAIS): each moves
on pi^beta_hot by v + 1 `rwm_core` steps per sweep, carrying its record
and log density.  Until adaptation freezes, chain t mod n_chains then
searches from its state (`exploration.mfind`).  The exploration phase
draws from the sweep's explore stream, the chains in order; the
searching chain first draws the refresh coin (and, on heads, the
mixture point it restarts from), then every chain draws z, then u, per
step.  A bootstrap search draws the same way from a stream of its own.
"""

from __future__ import annotations

import logging
import time
from functools import partial

import numpy as np

from . import outputs
from .config import ConfigError, RunConfig
from .density import TargetDensity
from .diagnostics import (HOT, LEAP, LEAP_LOCAL, RWM, SWAP_QUANTA,
                          SWAP_STANDARD, RunDiagnostics)
from .exploration import NOT_CONVERGED, REJECTED, mfind
from .hat import ChainRecord, Level, chi2_quantile, level_values, quad_forms
from .kernels import (mixture_propose, mode_leap_core, quanta_swap_core,
                      rwm_core, rwm_propose, standard_swap_core)
# perfbench/tracer.py counts the sweep's RWM updates, one decision each,
# through this name
from .kernels import rwm_decide as rwm_core_alloc
# kept only for perfbench/tracer.py, which patches these names here
from .optimize import local_optimize  # noqa: F401
from .registry import ModeRegistry
from .registry import try_insert  # noqa: F401
from .rng import EXPLORE_STREAM, LEAP_STREAM, SWAP_STREAM, StreamFactory

logger = logging.getLogger(__name__)

_BOOTSTRAP_COUNTER_BASE = 1 << 62
# Step tuning aims at the acceptance rate that is optimal for RWM in high
# dimension (Roberts, Gelman & Gilks 1997).
RWM_TUNE_TARGET = 0.234


class NumericalAbort(RuntimeError):
    """Target evaluation failed mid-run; message carries sweep context."""


def _config_point(value, dim: int, name: str) -> np.ndarray:
    """The config entry `name` as a point of dim finite coordinates."""
    try:
        point = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name} is not a point: {err}") from err
    if point.shape != (dim,):
        raise ConfigError(f"{name} has shape {point.shape}, expected ({dim},)")
    if not np.all(np.isfinite(point)):
        raise ConfigError(f"{name} must be finite")
    return point


def _swap_schedule(strategy: str, n_pairs: int, sweep: int, rng) -> list:
    """Pair indices for one sweep's swap phase, one swap per pair.

    "uniform" draws each pair index independently; "even_odd" runs the
    even-indexed then the odd-indexed pairs, alternating the starting
    block between sweeps so neighbouring swaps compose into systematic
    up/down passes of the ladder.
    """
    if strategy == "uniform":
        return rng.integers(0, n_pairs, size=n_pairs).tolist()
    even = list(range(0, n_pairs, 2))
    odd = list(range(1, n_pairs, 2))
    return even + odd if sweep % 2 == 0 else odd + even


class _Run:
    """Chains, ladder and diagnostics of one run, shared by its phases.

    With `hat` the levels are HAT targets on a mode registry filled from
    config.initial_modes or else by bootstrap exploration; without it
    they are the plain powers pi^beta and there is no registry.  `radii`
    holds each level's truncation radius: config.truncation's chi-squared
    quantile at the levels with beta > 1, inf elsewhere.  Chain k carries
    its record in `states[k]` and its level value in `logps[k]`.
    """

    def __init__(self, config: RunConfig, target: TargetDensity,
                 betas: np.ndarray, hat: bool):
        if config.out_dir:
            outputs.prepare_out_dir(config.out_dir)
        d = target.dim
        self.config, self.target, self.betas = config, target, betas
        self.n = betas.size - 1
        self.freeze = config.burnin_sweeps
        self.stage = "setup"
        self.diag = RunDiagnostics(d, config.n_sweeps * config.v)
        self.factory = StreamFactory(config.seed)
        self.registry = self.snapshot = None
        self.hot_target = None
        x0 = (np.zeros(d) if config.init is None
              else _config_point(config.init, d, "init"))
        # checked in every run type; only searches read them
        self.initial_points = [
            _config_point(point, d, f"initial_modes[{i}]")
            for i, point in enumerate(config.initial_modes or [])]
        # build_levels fills in the quad forms
        self.states = [ChainRecord((x0.copy(), target.log_density(x0),
                                    quad_forms(None, x0)))
                       for _ in range(self.n + 1)]
        if hat:
            self._find_modes(x0)
        radius = (np.inf if config.truncation is None
                  else chi2_quantile(config.truncation.level, d))
        self.radii = np.where(betas > 1.0, radius, np.inf)
        self.build_levels()
        self.step_scales = np.array(config.rwm.step_scales(self.n + 1))
        self.locations = getattr(target, "component_locations", None)

    def _find_modes(self, x0: np.ndarray) -> None:
        """Start the hot chains at x0 when exploration runs, then fill the
        registry by a search from each of config.initial_modes, or else
        by bootstrap searches."""
        config, d = self.config, self.target.dim
        explore = config.exploration
        if explore is not None:
            if config.ladder.beta_hot is None:
                raise ConfigError("exploration requires ladder.beta_hot")
            self.hot_target = Level(self.target, config.ladder.beta_hot)
            self.hot_states = [self.hot_target.record(x0.copy())
                               for _ in range(explore.n_hot_chains)]
            self.hot_logps = [self.hot_target.value(rec)[0]
                              for rec in self.hot_states]
        self.registry = ModeRegistry(dim=d)
        for i, point in enumerate(self.initial_points):
            record: dict = {}
            _, self.registry, _ = mfind(point, self.registry, self.target,
                                        log_cb=record.update)
            if record["status"] == NOT_CONVERGED:
                logger.warning("initial_modes[%d]: ascent did not converge; "
                               "skipped", i)
        if self.registry.n_modes == 0:
            if self.hot_target is None:
                raise ConfigError("no modes discovered (registry empty and "
                                  "exploration disabled)")
            self._bootstrap(explore.max_bootstrap_attempts)

    def _bootstrap(self, attempts: int) -> None:
        """Search until a first mode is registered; abort after `attempts`
        searches, saying why each one failed."""
        for attempt in range(attempts):
            rng = self.factory.stream(EXPLORE_STREAM,
                                      _BOOTSTRAP_COUNTER_BASE + attempt)
            if self.search(attempt % len(self.hot_states), -1, attempt, rng):
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

    def hot_moves(self, chain: int, rng, tally: bool = True) -> None:
        """v + 1 RWM steps of hot chain `chain` on pi^beta_hot, carrying
        its record and log density; `tally` counts them under HOT."""
        step_scale = self.config.exploration.step_scale
        rec, logp = self.hot_states[chain], self.hot_logps[chain]
        for _ in range(self.config.v + 1):
            rec, logp, acc = rwm_core(rec, logp, self.hot_target, step_scale,
                                      rng)
            if tally:
                self.diag.count(HOT, -1, acc)
        self.hot_states[chain], self.hot_logps[chain] = rec, logp

    def search(self, chain: int, sweep: int, iteration: int, rng) -> bool:
        """Move hot chain `chain`, its steps untallied, then one logged
        mfind call from its state.  The move first draws the refresh
        coin: on heads the chain restarts at a draw from the registry's
        mixture."""
        refresh = self.config.exploration.refresh_from_modes
        if (refresh > 0.0 and self.registry.n_modes > 0
                and rng.random() < refresh):
            rec = self.hot_target.record(
                mixture_propose(self.registry.snapshot(), 1.0, rng))
            self.hot_states[chain] = rec
            self.hot_logps[chain] = self.hot_target.value(rec)[0]
        self.hot_moves(chain, rng, tally=False)
        record: dict = {}
        _, self.registry, found = mfind(self.hot_states[chain].x,
                                        self.registry, self.target,
                                        log_cb=record.update)
        self.diag.discovery_log.append(
            {"sweep": sweep, "iteration": iteration, **record})
        if found:
            self.diag.registry_events.append(
                {"sweep": sweep, "version": self.registry.version,
                 "n_modes": self.registry.n_modes})
        return found

    def build_levels(self) -> None:
        """One `Level` per beta on the current registry snapshot (plain
        powers without a registry), at its radius in `radii`; each chain's
        record gets its quad forms against the snapshot, keeping log pi,
        and its value under its level."""
        snap = self.snapshot = (None if self.registry is None
                                else self.registry.snapshot())
        self.level_targets = [
            Level(self.target, beta, snap, radius)
            for beta, radius in zip(self.betas.tolist(), self.radii.tolist())]
        self.states = [ChainRecord((rec.x, rec.logpi, quad_forms(snap, rec.x)))
                       for rec in self.states]
        self.logps = [lt.value(rec)[0]
                      for lt, rec in zip(self.level_targets, self.states)]
        # states stranded outside a (new) truncation region restart at the
        # dominant mode point, whose HAT value is finite at every level
        for k, lp in enumerate(self.logps):
            if snap is not None and not np.isfinite(lp):
                level = self.level_targets[k]
                self.states[k] = level.record(
                    snap.mus[int(np.argmax(snap.log_weights))].copy())
                self.logps[k] = level.value(self.states[k])[0]

    def tune(self, levels, rates, sweep: int) -> None:
        """Robbins-Monro step of each level's log step scale toward the
        target acceptance rate, all levels in one array operation, until
        adaptation freezes."""
        if not self.config.rwm.tune or sweep >= self.freeze:
            return
        levels = np.asarray(levels)
        gamma = 1.0 / (1.0 + sweep) ** 0.6
        log_steps = np.log(self.step_scales[levels])
        self.step_scales[levels] = np.clip(
            np.exp(log_steps + gamma * (np.asarray(rates) - RWM_TUNE_TARGET)),
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
    v, snapshot = run.config.v, run.snapshot
    lo, hi = levels.start, levels.stop
    rngs = [run.factory.level_stream(k, t) for k in levels]
    targets = run.level_targets[lo:hi]
    states = run.states[lo:hi]
    X = np.array([rec.x for rec in states])
    logpis = [rec.logpi for rec in states]
    qfs = [rec.qf for rec in states]
    logps = run.logps[lo:hi]
    betas, radii = run.betas[lo:hi], run.radii[lo:hi]
    _, allocs = level_values(snapshot, betas, logpis, qfs, radii)
    beta_col, step_col = betas[:, None], run.step_scales[lo:hi, None]
    steps = step_col.ravel().tolist()
    Z = np.empty_like(X)
    accepted = np.zeros(len(levels), dtype=int)
    span = f"levels {lo}-{hi - 1}"
    for r in range(v):
        run.stage = f"rwm rep {r}, {span}"
        us = _draw_rwm(rngs, Z)
        Y = rwm_propose(X, snapshot, beta_col, step_col, Z, allocs)
        logpi_ys = run.target.log_density_batch(Y)
        qf_ys = quad_forms(snapshot, Y)
        logp_ys, a_ys = level_values(snapshot, betas, logpi_ys, qf_ys, radii)
        logpi_ys = logpi_ys.tolist()
        acc = np.zeros(len(levels), dtype=bool)
        for i, target in enumerate(targets):
            _, logps[i], allocs[i], moved = rwm_core_alloc(
                X[i], logps[i], allocs[i], Y[i], us[i], logp_ys[i], a_ys[i],
                target, steps[i])
            if moved:
                acc[i] = True
                logpis[i], qfs[i] = logpi_ys[i], qf_ys[i]
        np.copyto(X, Y, where=acc[:, None])
        accepted += acc
        if lo == 0:
            run.diag.record_sample(X[0])
    run.states[lo:hi] = map(ChainRecord, zip(X, logpis, qfs))
    run.logps[lo:hi] = logps
    for k, acc in zip(levels, accepted.tolist()):
        run.diag.count(RWM, k, acc, v)
    run.tune(levels, accepted / v, t)


def _leap_phase(run: _Run, t: int, tune_local: bool) -> None:
    """Mode leaps at level n; `tune_local` adapts the local moves' step."""
    n = run.n
    run.stage = f"leap level {n}"
    rng = run.factory.stream(LEAP_STREAM, t)
    accepted_local = n_local = 0
    for _ in range(run.config.v):
        run.states[n], run.logps[n], move_type, acc = mode_leap_core(
            run.states[n], run.logps[n], run.level_targets[n],
            run.step_scales[n], rng)
        run.diag.count(LEAP if move_type == "leap" else LEAP_LOCAL, n, acc)
        if move_type == "local":
            accepted_local += int(acc)
            n_local += 1
        if n == 0:
            run.diag.record_sample(run.states[0].x)
    if tune_local and n_local:
        run.tune([n], [accepted_local / n_local], t)


def _swap_phase(run: _Run, t: int) -> None:
    """One swap per neighbour pair; on HAT levels a coin picks QuanTA or
    standard for each, on power levels all are standard and no coin is
    drawn.  The schedule and the uniforms are drawn up front (see the
    module docstring)."""
    config, n = run.config, run.n
    if n < 1:
        return
    run.stage = "swaps"
    rng = run.factory.stream(SWAP_STREAM, t)
    hat = run.snapshot is not None
    schedule = _swap_schedule(config.swap_strategy, n, t, rng)
    draws = rng.random((n, 2 if hat else 1)).tolist()
    states, logps, targets = run.states, run.logps, run.level_targets
    for k, row in zip(schedule, draws):
        u = row[-1]
        if hat and row[0] < config.swap_quanta_prob:
            res = quanta_swap_core(states[k], states[k + 1], logps[k],
                                   logps[k + 1], targets[k], targets[k + 1], u)
            run.diag.count(SWAP_QUANTA, k, res.accepted)
        else:
            res = standard_swap_core(states[k], states[k + 1], logps[k],
                                     logps[k + 1], targets[k], targets[k + 1],
                                     u)
            run.diag.count(SWAP_STANDARD, k, res.accepted)
        states[k], states[k + 1] = res.low, res.high
        logps[k], logps[k + 1] = res.logp_low, res.logp_high


def _exploration_phase(run: _Run, t: int) -> None:
    """Until adaptation freezes, hot chain t mod n_chains moves and
    searches (`_Run.search`); every other chain moves, its steps tallied
    under HOT.  Without exploration there are no hot chains."""
    if run.hot_target is None:
        return
    run.stage = "exploration"
    rng = run.factory.stream(EXPLORE_STREAM, t)
    n_chains = len(run.hot_states)
    active = t % n_chains if t < run.freeze else -1
    for c in range(n_chains):
        if c == active:
            run.search(c, t, c, rng)
        else:
            run.hot_moves(c, rng)


def _hat_visits(run: _Run, t: int) -> None:
    run.stage = "bookkeeping"
    diag, n = run.diag, run.n
    diag.mode_visits_level0.append(
        run.level_targets[0].value(run.states[0])[1])
    diag.mode_visits_top.append(
        diag.mode_visits_level0[-1] if n == 0
        else run.level_targets[n].value(run.states[n])[1])


def _nearest_visits(run: _Run, t: int) -> None:
    if run.locations is not None:
        for visits, rec in ((run.diag.mode_visits_level0, run.states[0]),
                            (run.diag.mode_visits_top, run.states[run.n])):
            sq_dist = np.sum((run.locations - rec.x) ** 2, axis=1)
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
        _swap_phase, _exploration_phase, _hat_visits))


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
        partial(_leap_phase, tune_local=True), _exploration_phase,
        _hat_visits))
