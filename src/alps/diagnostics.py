"""Run diagnostics: acceptance counters, traces, mode visits, timings."""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

RWM = "rwm"
LEAP = "leap"
LEAP_LOCAL = "leap_local"
SWAP_QUANTA = "swap_quanta"
SWAP_STANDARD = "swap_standard"
HOT = "hot"


@dataclass
class RunDiagnostics:
    """Bookkeeping shared by all run types."""

    dim: int
    capacity: int = 0    # level-0 states the run will record
    samples: np.ndarray = field(init=False)  # (capacity, dim)
    n_recorded: int = 0  # filled rows of samples
    counters: dict = field(default_factory=lambda: defaultdict(lambda: [0, 0]))
    mode_visits_level0: list = field(default_factory=list)
    mode_visits_top: list = field(default_factory=list)
    registry_events: list = field(default_factory=list)
    discovery_log: list = field(default_factory=list)
    sweep_seconds: float = 0.0
    n_sweeps: int = 0
    tuned_step_scales: list = field(default_factory=list)
    registry: object = None

    def __post_init__(self):
        self.samples = np.empty((self.capacity, self.dim))

    def count(self, move: str, level: int, accepted: bool) -> None:
        cell = self.counters[(move, level)]
        cell[0] += int(accepted)
        cell[1] += 1

    def record_sample(self, x: np.ndarray) -> None:
        self.samples[self.n_recorded] = x
        self.n_recorded += 1

    def acceptance_dict(self) -> dict:
        out: dict = {}
        for (move, level), (acc, tot) in sorted(self.counters.items()):
            entry = out.setdefault(move, {})
            entry[str(level)] = {
                "accepts": acc,
                "proposals": tot,
                "rate": acc / tot if tot else None,
            }
        return out

    def mode_visit_counts(self) -> dict:
        def counts(seq):
            vals, cnts = np.unique(np.asarray(seq, dtype=int), return_counts=True)
            return {str(v): int(c) for v, c in zip(vals, cnts)}
        return {
            "level_0": counts(self.mode_visits_level0) if self.mode_visits_level0 else {},
            "level_top": counts(self.mode_visits_top) if self.mode_visits_top else {},
        }


def running_prob_estimate(trace: np.ndarray, threshold: float,
                          burnin: int) -> np.ndarray:
    """Running mean of 1{x_j < threshold} over the post-burn-in samples.

    Entry t is the estimate using samples burnin .. burnin + t.
    """
    trace = np.asarray(trace, dtype=float).ravel()
    if burnin >= trace.size:
        raise ValueError(f"burnin {burnin} is not below trace length {trace.size}")
    ind = (trace[burnin:] < threshold).astype(float)
    return np.cumsum(ind) / np.arange(1, ind.size + 1)
