"""Run diagnostics: acceptance counters, traces, mode visits, timings.

The counters tally (accepts, proposals) per (move, level): RWM steps at
every level, mode leaps at the top level of an ALPS ladder (level 0 on
the ladder [1.0]), swaps per neighbour pair (level k for the pair k,
k + 1; QuanTA between HAT levels, standard between power levels), and
the hot chain's steps under HOT at level -1.  A phase that decides a
block of moves counts them in one call.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

RWM = "rwm"
LEAP = "leap"
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
    round_trips: int = 0  # post-burn-in level 0 -> n -> 0 passes
    registry: object = None

    def __post_init__(self):
        self.samples = np.empty((self.capacity, self.dim))

    def count(self, move: str, levels, accepts, proposals: int = 1) -> None:
        """Add accepts[i] accepted out of `proposals` moves at levels[i] to
        the tally, for a block of levels; a scalar level and its accepts
        count one."""
        for level, acc in zip(np.atleast_1d(levels).tolist(),
                              np.atleast_1d(accepts).tolist()):
            cell = self.counters[(move, level)]
            cell[0] += int(acc)
            cell[1] += proposals

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
