"""Run orchestration: one sweep driver for ALPS and the PT baseline.

A run type is the list of phases one sweep applies, in order:

- ALPS: RWM at HAT levels 0..n, mode leaps at level n, QuanTA DEO
  swaps, exploration, and the mode allocations of levels 0 and n.
- PT: RWM at power-tempered levels 0..n, standard DEO swaps, and the
  nearest component locations of levels 0 and n.

The LAIS baseline (Laplace-mixture independence sampling at beta = 1)
is ALPS on the one-level ladder [1.0]: RWM steps and mode leaps at
level 0, exploration, and the allocation of level 0.

Adaptation has one window, burn-in: until the freeze (sweep
burnin_sweeps) each level's RWM step is tuned and the hot chain searches
for modes; after it the kernels and the ladder are fixed.

RWM and leap phases make V (`config.V`) updates per level: each level
takes V RWM steps, and level n then takes V leaps, a fixed composition
that leaves each level invariant.  Level-0 states are recorded after
every level-0 RWM step, and only then, so total_target_samples = V *
sweeps, on the ladder [1.0] too.

The ladder's chains are one block for the whole run: row k of X (L,
dim), logpi (L,) and qf (L, J) is level k's record (x, log pi(x),
qf(x)), qf(x) being the quad forms of x against the registered modes
(no columns on power levels), and nothing else.  The hot chain keeps
its own record (`hat.ChainRecord`).  A phase reads the level values it
needs off the block when it starts (`hat.level_values`, which evaluates
no density) and keeps them only while it runs; it updates the block in
place.  Only new points are evaluated.  A registry rebuild recomputes
qf and keeps log pi.  Every level, and the target of the hot chain, is
one `hat.Level`: a plain power without a snapshot, a HAT level on the
run's current snapshot, truncated at a finite radius (the levels with
beta > 1 when config.truncation is set).

The RWM phase draws all of a sweep's RWM randomness from the sweep's
RWM stream in two calls: first Z ~ N(0, I) of shape (V, L, dim), then
the (V, L) acceptance uniforms, whose logs it takes in one more call.
Repetition r moves the L levels in lockstep as array operations on
(L, dim) blocks: the proposals from Z[r] (HAT levels step by their
allocated mode's Cholesky factor), one `log_density_batch` call, one
quad-form call, one `level_values` call and one `rwm_decide` call over
the block, which compares each level's log u with its log ratio.  Row i
of Z[r] and of the uniforms is level i's r-th step, so the run is the
one that updates the levels one after another, each taking its steps'
draws from the same block.

The leap phase draws from the sweep's leap stream: the V component
uniforms, one (V, dim) block of z ~ N(0, I), then the V decision
uniforms.  It scores the V proposals as one block and decides the
leaps in order (`kernels.mode_leap_core`, called once per sweep).

The swap phase makes one swap per neighbour pair, n_levels - 1 in all,
on the deterministic even-odd schedule (DEO; Syed et al.,
arXiv:1905.02939): every sweep the even pairs (0-1, 2-3, ...), then the
odd ones.  The swap is QuanTA on HAT levels (Tawn & Roberts, built for
such locally Gaussian levels) and standard on power levels; the run's
registry snapshot, not a setting, decides.  The phase draws the
sweep's swap stream in one call, one uniform u per pair k in pair
order, and takes their logs in one more.  The m pairs of one parity are
disjoint, so a parity is one block of 2m proposed records: row i is the
one proposed for level k of the i-th pair, row m + i the one for level
k + 1, each the other chain's record on power levels or its QuanTA
image on HAT levels (`quanta_swap_core`, one call for the block).  One
`hat.level_values` call prices the block, one `standard_swap_core` call
decides its m pairs, on HAT levels a pair only while both images keep
their chain's allocation, and one exchange writes the accepted rows.
Each chain carries a label, its starting level, through the swaps; from
the freeze on, a label's passes from level 0 to level n and back are
the run's round trips (`_Run.visit_ends`, summary.json's
`ladder_round_trips`).

The run owns the hot chain of exploration: until the freeze, each sweep
it moves on pi^beta_hot by V + 1 `rwm_core` steps, tallied under HOT,
and then searches from its state (`exploration.mfind`); at the freeze it
stops.  The exploration phase draws from the sweep's explore stream:
first the refresh coin (and, on heads, the one-row mixture block the
chain restarts from: its component uniform, then its z), then z, then
u, per step.  A bootstrap search moves and draws the same way, from a
stream of its own, and gives up after MAX_BOOTSTRAP_ATTEMPTS searches.
"""

from __future__ import annotations

import logging
import time

import numpy as np

from . import outputs
from .config import V, ConfigError, RunConfig
from .density import TargetDensity
from .diagnostics import (HOT, LEAP, RWM, SWAP_QUANTA, SWAP_STANDARD,
                          RunDiagnostics)
from .exploration import NOT_CONVERGED, REJECTED, mfind
from .hat import ChainRecord, Level, chi2_quantile, level_values, quad_forms
from .kernels import (mixture_propose, mode_leap_core, quanta_swap_core,
                      rwm_core, rwm_propose, standard_swap_core)
# perfbench/tracer.py counts the RWM phase's block decisions, one per
# repetition, through this name
from .kernels import rwm_decide as rwm_core_alloc
# kept only for perfbench/tracer.py, which patches these names here
from .optimize import local_optimize  # noqa: F401
from .registry import ModeRegistry
from .registry import try_insert  # noqa: F401
from .rng import (EXPLORE_STREAM, LEAP_STREAM, RWM_STREAM, SWAP_STREAM,
                  StreamFactory)

logger = logging.getLogger(__name__)

_BOOTSTRAP_COUNTER_BASE = 1 << 62
MAX_BOOTSTRAP_ATTEMPTS = 2000
# RWM steps start at 2.38/sqrt(d) in the level's units and are tuned toward
# acceptance 0.234, both optimal for RWM in high dimension (Roberts, Gelman
# & Gilks 1997).
RWM_INITIAL_STEP = 2.38
RWM_TUNE_TARGET = 0.234


class NumericalAbort(RuntimeError):
    """Target evaluation failed mid-run; message carries sweep context."""


def _config_point(value, dim: int, name: str) -> np.ndarray:
    """The config entry `name` as a point of dim finite coordinates."""
    try:
        point = np.asarray(value, dtype=float)
    except OverflowError as err:  # an integer too large for a float
        raise ConfigError(f"{name} must be finite") from err
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{name} is not a point: {err}") from err
    if point.shape != (dim,):
        raise ConfigError(f"{name} has shape {point.shape}, expected ({dim},)")
    if not np.all(np.isfinite(point)):
        raise ConfigError(f"{name} must be finite")
    return point


def _require_finite_start(logpi: float, point: np.ndarray, name: str) -> None:
    """A chain or a mode search cannot start where log pi is not finite."""
    if not np.isfinite(logpi):
        raise ConfigError(f"log density not finite at {name} = "
                          f"{point.tolist()}")


class _Run:
    """Chains, ladder and diagnostics of one run, shared by its phases.

    With `hat` the levels are HAT targets on a mode registry filled from
    config.initial_modes or else by bootstrap exploration; without it
    they are the plain powers pi^beta and there is no registry.  Chains
    start at config.init, or at the origin when it is null; a HAT run
    then moves its ladder's chains to the dominant registered mode.
    `radii` holds each level's truncation radius: config.truncation's
    chi-squared quantile at the levels with beta > 1, inf elsewhere.
    Chain k's record, its only state, is row k of the block X, logpi, qf
    (`record(k)`); the hot chain's is `hot_state`.
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
        self.diag = RunDiagnostics(d, config.n_sweeps * V)
        self.factory = StreamFactory(config.seed)
        self.registry = self.snapshot = None
        self.hot_target = self.hot_state = None
        x0 = (np.zeros(d) if config.init is None
              else _config_point(config.init, d, "init"))
        # checked in every run type; only searches read them
        self.initial_points = [
            _config_point(point, d, f"initial_modes[{i}]")
            for i, point in enumerate(config.initial_modes or [])]
        # a start whose log density overflows is a config error, not a
        # warning; build_levels fills in the quad forms
        self.X = np.tile(x0, (self.n + 1, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            self.logpi = np.full(self.n + 1, target.log_density(x0))
            _require_finite_start(self.logpi[0], x0, "init")
            for i, point in enumerate(self.initial_points):
                _require_finite_start(target.log_density(point), point,
                                      f"initial_modes[{i}]")
        if hat:
            self._find_modes(x0)
        radius = (np.inf if config.truncation is None
                  else chi2_quantile(config.truncation.level, d))
        self.radii = np.where(betas > 1.0, radius, np.inf)
        # level 0 is not truncated: without an init nothing else would move
        # it to where the levels above it sample
        self.build_levels(restart_all=hat and config.init is None)
        # HAT proposals divide by sqrt(beta) themselves (`rwm_propose`)
        self.step_scales = RWM_INITIAL_STEP / np.sqrt(
            d * (np.ones_like(betas) if hat else betas))
        self.locations = getattr(target, "component_locations", None)
        # chain labels by level, and the ladder end (0 or n) each labelled
        # chain last reached after burn-in (`visit_ends`)
        self.labels = np.arange(self.n + 1)
        self.last_end = [None] * (self.n + 1)
        # each swap parity's lower levels k, its block's rows' levels (k
        # then k + 1) and the chains proposed there (k + 1 then k)
        self.parities = [
            (lower, np.r_[lower, lower + 1], np.r_[lower + 1, lower])
            for lower in (np.arange(p, self.n, 2)
                          for p in range(min(self.n, 2)))]

    def _find_modes(self, x0: np.ndarray) -> None:
        """Start the hot chain at x0 when exploration runs, then fill the
        registry by a search from each of config.initial_modes, or else
        by bootstrap searches."""
        config, d = self.config, self.target.dim
        explore = config.exploration
        if explore is not None:
            if config.ladder.beta_hot is None:
                raise ConfigError("exploration requires ladder.beta_hot")
            self.hot_target = Level(self.target, config.ladder.beta_hot)
            self.hot_state = self.hot_target.record(x0.copy())
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
            self._bootstrap()

    def _bootstrap(self) -> None:
        """Search until a first mode is registered; abort after
        MAX_BOOTSTRAP_ATTEMPTS searches, saying why each one failed."""
        attempts = MAX_BOOTSTRAP_ATTEMPTS
        for attempt in range(attempts):
            rng = self.factory.stream(EXPLORE_STREAM,
                                      _BOOTSTRAP_COUNTER_BASE + attempt)
            if self.search(-1, rng):
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

    def hot_moves(self, rng) -> None:
        """V + 1 RWM steps of the hot chain on pi^beta_hot, tallied under
        HOT."""
        step_scale = self.config.exploration.step_scale
        rec = self.hot_state
        logp = self.hot_target.value(rec)[0]
        for _ in range(V + 1):
            rec, logp, acc = rwm_core(rec, logp, self.hot_target, step_scale,
                                      rng)
            self.diag.count(HOT, -1, acc)
        self.hot_state = rec

    def search(self, sweep: int, rng) -> bool:
        """Move the hot chain, then one logged mfind call from its state.
        The move first draws the refresh coin: on heads the chain
        restarts at a draw from the registry's mixture.  The search is
        logged under `sweep`, -1 in the bootstrap."""
        refresh = self.config.exploration.refresh_from_modes
        if (refresh > 0.0 and self.registry.n_modes > 0
                and rng.random() < refresh):
            self.hot_state = self.hot_target.record(
                mixture_propose(self.registry.snapshot(), 1.0, 1, rng)[0])
        self.hot_moves(rng)
        record: dict = {}
        _, self.registry, found = mfind(self.hot_state.x, self.registry,
                                        self.target, log_cb=record.update)
        self.diag.discovery_log.append({"sweep": sweep, **record})
        if found:
            self.diag.registry_events.append(
                {"sweep": sweep, "version": self.registry.version,
                 "n_modes": self.registry.n_modes})
        return found

    def record(self, k: int) -> ChainRecord:
        """Chain k's record, a view of row k of the block."""
        return ChainRecord((self.X[k], self.logpi[k], self.qf[k]))

    def build_levels(self, restart_all: bool = False) -> None:
        """One `Level` per beta on the current registry snapshot (plain
        powers without a registry), at its radius in `radii`; the block's
        quad forms are recomputed against the snapshot, keeping log pi.
        With `restart_all` every chain restarts at the dominant mode."""
        snap = self.snapshot = (None if self.registry is None
                                else self.registry.snapshot())
        self.level_targets = [
            Level(self.target, beta, snap, radius)
            for beta, radius in zip(self.betas.tolist(), self.radii.tolist())]
        self.qf = quad_forms(snap, self.X)
        if snap is None:
            return
        # states stranded outside a (new) truncation region restart at the
        # dominant mode point, whose HAT value is finite at every level
        mode = snap.mus[int(np.argmax(snap.log_weights))]
        values = level_values(snap, self.betas, self.logpi, self.qf,
                              self.radii)[0]
        for k in np.flatnonzero(~np.isfinite(values) | restart_all).tolist():
            self.X[k], self.logpi[k], self.qf[k] = \
                self.level_targets[k].record(mode)

    def visit_ends(self, sweep: int) -> None:
        """From the freeze on, note which chains sit at levels 0 and n; a
        chain back at level 0 after reaching n since its last visit there
        completes a round trip."""
        if sweep < self.freeze:
            return
        bottom, top = self.labels[0], self.labels[self.n]
        self.diag.round_trips += self.last_end[bottom] == self.n
        self.last_end[bottom] = 0
        if self.last_end[top] == 0:
            self.last_end[top] = self.n

    def tune(self, rates: np.ndarray, sweep: int) -> None:
        """Robbins-Monro step of each level's log step scale toward the
        target acceptance rate, all levels in one array operation, until
        adaptation freezes."""
        if sweep >= self.freeze:
            return
        gamma = 1.0 / (1.0 + sweep) ** 0.6
        self.step_scales = np.clip(
            np.exp(np.log(self.step_scales)
                   + gamma * (rates - RWM_TUNE_TARGET)), 1e-8, 1e8)


# Phases: each takes (run, sweep index) and advances the run in place.
# They look kernels up in this module's namespace at call time, so
# wrappers installed on those names see every call.

def _rwm_phase(run: _Run, t: int) -> None:
    """V RWM updates per level, the levels in lockstep on the run's block
    (see the module docstring); the tallies are counted and the step
    scales tuned once, after the last repetition."""
    snapshot, betas, radii = run.snapshot, run.betas, run.radii
    X, logpi, qf = run.X, run.logpi, run.qf
    logp, alloc = level_values(snapshot, betas, logpi, qf, radii)
    beta_col, step_col = betas[:, None], run.step_scales[:, None]
    scale = (step_col / np.sqrt(beta_col)).ravel()
    rng = run.factory.stream(RWM_STREAM, t)
    Z = rng.standard_normal((V,) + X.shape)
    log_u = np.log(rng.random((V, betas.size)))
    accepted = np.zeros(betas.size, dtype=int)
    for r in range(V):
        run.stage = f"rwm rep {r}, levels 0-{run.n}"
        Y = rwm_propose(X, snapshot, beta_col, step_col, Z[r], alloc)
        logpi_y = run.target.log_density_batch(Y)
        qf_y = quad_forms(snapshot, Y)
        logp_y, alloc_y = level_values(snapshot, betas, logpi_y, qf_y, radii)
        acc = rwm_core_alloc(X, logp, alloc, Y, log_u[r], logp_y, alloc_y,
                             snapshot, scale)
        np.copyto(X, Y, where=acc[:, None])
        np.copyto(logp, logp_y, where=acc)
        np.copyto(logpi, logpi_y, where=acc)
        np.copyto(alloc, alloc_y, where=acc)
        np.copyto(qf, qf_y, where=acc[:, None])
        accepted += acc
        run.diag.record_sample(X[0])
    for k, acc in enumerate(accepted.tolist()):
        run.diag.count(RWM, k, acc, V)
    run.tune(accepted / V, t)


def _leap_phase(run: _Run, t: int) -> None:
    """V mode leaps at level n, drawn and scored as one block (see the
    module docstring)."""
    n = run.n
    run.stage = f"leap level {n}"
    rec, accepted = mode_leap_core(run.record(n), run.level_targets[n], V,
                                   run.factory.stream(LEAP_STREAM, t))
    run.X[n], run.logpi[n], run.qf[n] = rec
    run.diag.count(LEAP, n, accepted, V)


def _swap_phase(run: _Run, t: int) -> None:
    """One swap per neighbour pair, the even pairs and then the odd ones
    (DEO): QuanTA on HAT levels, standard on power levels.  The uniforms
    are drawn up front and each parity is proposed, priced, decided and
    exchanged as one block (see the module docstring).  Each level's
    value and allocation are read off the block once and follow its
    chain through the swaps."""
    n = run.n
    if n < 1:
        return
    run.stage = "swaps"
    X, logpi, qf, labels = run.X, run.logpi, run.qf, run.labels
    snapshot, betas, radii = run.snapshot, run.betas, run.radii
    hat = snapshot is not None
    move = SWAP_QUANTA if hat else SWAP_STANDARD
    log_us = np.log(run.factory.stream(SWAP_STREAM, t).random(n))
    logp, alloc = level_values(snapshot, betas, logpi, qf, radii)
    run.visit_ends(t)
    for lower, levels, chains in run.parities:
        m = lower.size
        x, lp, q = X[chains], logpi[chains], qf[chains]
        if hat:
            a_x = alloc[chains]
            x, lp, q = quanta_swap_core(run.target, snapshot, x, a_x,
                                        betas[chains], betas[levels])
        values, allocs = level_values(snapshot, betas[levels], lp, q,
                                      radii[levels])
        accepted = standard_swap_core(logp[lower], logp[lower + 1],
                                      values[:m], values[m:], log_us[lower])
        if hat:
            # QuanTA's map is an involution only while each image keeps
            # its chain's allocation (Tawn & Roberts 2018)
            kept = allocs == a_x
            accepted &= kept[:m] & kept[m:]
        for k, acc in zip(lower.tolist(), accepted.tolist()):
            run.diag.count(move, k, acc)
        taken = np.concatenate((accepted, accepted))
        rows = levels[taken]
        X[rows], logpi[rows], qf[rows] = x[taken], lp[taken], q[taken]
        logp[rows], alloc[rows] = values[taken], allocs[taken]
        labels[rows] = labels[chains[taken]]
        run.visit_ends(t)


def _exploration_phase(run: _Run, t: int) -> None:
    """Until adaptation freezes the hot chain moves and searches
    (`_Run.search`); from the freeze on it stops.  Without exploration
    there is no hot chain."""
    if run.hot_target is None or t >= run.freeze:
        return
    run.stage = "exploration"
    run.search(t, run.factory.stream(EXPLORE_STREAM, t))


def _hat_visits(run: _Run, t: int) -> None:
    run.stage = "bookkeeping"
    ends = [0, run.n]
    alloc = level_values(run.snapshot, run.betas[ends], run.logpi[ends],
                         run.qf[ends], run.radii[ends])[1].tolist()
    run.diag.mode_visits_level0.append(alloc[0])
    run.diag.mode_visits_top.append(alloc[1])


def _nearest_visits(run: _Run, t: int) -> None:
    if run.locations is not None:
        for visits, x in ((run.diag.mode_visits_level0, run.X[0]),
                          (run.diag.mode_visits_top, run.X[run.n])):
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
    """Annealed leap-point sampling; returns (level-0 samples, diagnostics).

    On the ladder [1.0] this is the LAIS baseline."""
    betas = np.asarray(config.ladder.betas, dtype=float)
    if betas[0] != 1.0 or np.any(np.diff(betas) <= 0):
        raise ConfigError("annealing ladder must start at 1 and increase")
    return _drive(config, target, betas, hat=True, phases=(
        _rwm_phase, _leap_phase, _swap_phase, _exploration_phase,
        _hat_visits))


def pt_run(config: RunConfig, target: TargetDensity):
    """Classic parallel tempering on power-tempered targets."""
    betas = np.asarray(config.ladder.betas, dtype=float)
    if betas[0] != 1.0 or (betas.size > 1 and np.any(np.diff(betas) >= 0)):
        raise ConfigError("tempering ladder must start at 1 and decrease")
    return _drive(config, target, betas, hat=False, phases=(
        _rwm_phase, _swap_phase, _nearest_visits))

