"""Benchmark workloads: the alps command each one runs and its gate.

A sampler workload is `alps run|pt --preset P --config <override> --seed S
--out DIR`; the override only shortens the preset (and, for pt-skew,
swaps the target).  `scaling` is `alps scaling --seed S --out DIR` with
the command-line defaults.  Gates read what the child process captured
from the run: level-0 samples, diagnostics, the built target, the
parsed config and the artifact directory.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

import gates

# Skew-normal shape shared by the 20-d benchmark components and pt-skew.
ALPHA = 10.0
DIM = 20
# Within-mode moment tolerance, sized over seeds (see README.md).
MOMENT_TOL = 0.08


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                 # alps subcommand
    gate: Callable               # context -> (passed, checks)
    preset: str | None = None
    override: dict = field(default_factory=dict)
    smoke_override: dict = field(default_factory=dict)

    @property
    def is_sampler(self) -> bool:
        return self.command in ("run", "pt")

    def config(self, smoke: bool) -> dict:
        return {**self.override, **(self.smoke_override if smoke else {})}

    def argv(self, seed: int, out_dir: str, config_path: str | None,
             smoke: bool) -> list:
        if not self.is_sampler:
            argv = ["scaling", "--seed", str(seed), "--out", out_dir]
            return argv + (["--dims", "10,20", "--samples", "2000"] if smoke else [])
        return [self.command, "--preset", self.preset, "--config", config_path,
                "--seed", str(seed), "--out", out_dir]


def _post_burnin(ctx) -> np.ndarray:
    return ctx.samples[ctx.config.burnin_samples:]


def _registry_arrays(registry) -> tuple:
    snap = registry.snapshot()
    return snap.mus, np.exp(snap.log_weights), snap.log_pi_at_modes


def gate_alps_20d(ctx) -> tuple:
    target = ctx.target
    mus, weights, _ = _registry_arrays(ctx.diag.registry)
    return gates.alps_20d_gate(
        _post_burnin(ctx), target.component_locations, target.omegas,
        target.component_modes(), mus, weights, alpha=target.alpha,
        threshold=0.5, p_true=0.5, p_tol=0.4, mean_tol=MOMENT_TOL,
        var_tol=MOMENT_TOL,
        dist_tol=0.05, weight_tol=0.02)


def gate_pt_20d(ctx) -> tuple:
    target = ctx.target
    return gates.skew_moment_gate(_post_burnin(ctx), target.component_locations,
                                  target.omegas, alpha=target.alpha,
                                  mean_tol=MOMENT_TOL, var_tol=MOMENT_TOL)


def gate_pt_skew(ctx) -> tuple:
    # The product target is recentred at the skew-normal mode, so its
    # single component sits at -m0 in every coordinate.
    m0 = ctx.target.h.m0
    return gates.skew_moment_gate(_post_burnin(ctx), np.full((1, DIM), -m0),
                                  np.ones(1), alpha=ctx.target.h.alpha,
                                  mean_tol=MOMENT_TOL, var_tol=MOMENT_TOL)


def gate_alps_sur(ctx) -> tuple:
    from alps.targets import load_grunfeld, zellner_iterate
    params = ctx.config.target.params
    fit = zellner_iterate(load_grunfeld(first_years=params.get("first_years", 15)))
    mus, _, log_pi = _registry_arrays(ctx.diag.registry)
    return gates.sur_gate(mus, log_pi, fit.theta, float(fit.trajectory[-1]),
                          loglik_tol=1e-6, theta_rtol=1e-3)


def read_scaling_csv(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    return {name: np.array([r[i] for r in rows]) for i, name in enumerate(header)}


def gate_scaling(ctx) -> tuple:
    cols = read_scaling_csv(os.path.join(ctx.out_dir, "scaling.csv"))
    return gates.scaling_gate(cols["d"], cols["observed_rate"], cols["mc_stderr"],
                              cols["predicted_rate"], final_gap_tol=0.02)


_SMOKE = {"total_target_samples": 200, "burnin_samples": 100}

WORKLOADS = {w.name: w for w in (
    Workload(
        name="pt-skew",
        why="PT over 14 power levels on a 20-d iid skew-normal product: "
            "runner, RWM, standard swaps, Philox streams and per-point skew "
            "density, with no registry, HAT, leap or exploration",
        command="pt", preset="synthetic-20d-pt",
        override={"target": {"name": "iid_product_skew",
                             "params": {"dim": DIM, "alpha": ALPHA}},
                  "init": [0.0] * DIM, "running_threshold": None,
                  "total_target_samples": 10000, "burnin_samples": 2000},
        smoke_override=_SMOKE, gate=gate_pt_skew),
    Workload(
        name="scaling",
        why="alps scaling defaults: skew log-pdf on bulk 2^18-element arrays, "
            "the only path through scaling and targets.product",
        command="scaling", gate=gate_scaling),
    Workload(
        name="alps-20d",
        why="synthetic-20d shortened: every ALPS layer (registry, HAT, RWM, "
            "leap, QuanTA and standard swaps, exploration until burn-in ends)",
        command="run", preset="synthetic-20d", override={"total_target_samples": 10000, "burnin_samples": 2000},
        smoke_override=_SMOKE, gate=gate_alps_20d),
    Workload(
        name="pt-20d",
        why="synthetic-20d-pt shortened: the same 4-mode target over 14 power "
            "levels; bypasses registry, HAT, leap and exploration",
        command="pt", preset="synthetic-20d-pt",
        override={"total_target_samples": 10000, "burnin_samples": 2000},
        smoke_override=_SMOKE, gate=gate_pt_20d),
    Workload(
        name="alps-sur",
        why="sur-grunfeld shortened: expensive 15-d SUR profile likelihood, one "
            "mode, truncated HAT, numerical Hessian, exploration-heavy",
        command="run", preset="sur-grunfeld",
        override={"total_target_samples": 2000, "burnin_samples": 500},
        smoke_override={"total_target_samples": 100, "burnin_samples": 50},
        gate=gate_alps_sur),
)}
