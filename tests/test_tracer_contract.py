"""The benchmark tracer (perfbench/tracer.py) patches alps functions by
name; every name it patches must exist and still see the sweep's calls.

The patches replace module attributes for the rest of a process, so the
traced run happens in a subprocess.
"""

import json
import os
import subprocess
import sys

from alps.config import V

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SWEEPS, LEVELS = 10, 3
# four levels make three swaps a sweep in two parities, so a count per
# parity differs from a count per swap
PT_LEVELS = 4

SCRIPT = f"""
import json
import sys

import numpy as np

sys.path.insert(0, "perfbench")
import tracer
from alps import runner
from alps.config import RunConfig
from alps.targets.gaussian import GaussianTarget

t = tracer.Tracer()
tracer.instrument(t)
config = RunConfig.from_dict({{
    "target": {{"name": "gaussian"}}, "seed": 0,
    "ladder": {{"betas": [0.5 ** k for k in range({PT_LEVELS})]}},
    "exploration": None, "total_target_samples": {V * SWEEPS}}})
t.wrap("runner", runner.pt_run)(config, GaussianTarget(np.zeros(1), np.eye(1)))
print(json.dumps({{
    "rwm": t.calls("kernels.rwm", "runner"),
    "swap_standard": t.calls("kernels.swap_standard", "runner"),
    "n_swaps": config.n_swaps,
    "record_sample": t.calls("diagnostics.record_sample"),
    "substream": t.calls("rng.substream")}}))
"""


DIM = 4

# The target is built before the tracer is installed, as a benchmark child
# builds it; the batched RWM evaluation must still reach the traced shape.
SKEW_SCRIPT = f"""
import json
import sys

sys.path.insert(0, "perfbench")
import tracer
from alps import runner
from alps.config import RunConfig
from alps.targets import build_target

target = build_target("iid_product_skew", {{"dim": {DIM}, "alpha": 10.0}})
t = tracer.Tracer()
tracer.instrument(t)
config = RunConfig.from_dict({{
    "target": {{"name": "iid_product_skew"}}, "seed": 0,
    "ladder": {{"betas": [0.5 ** k for k in range({LEVELS})]}},
    "exploration": None, "total_target_samples": {V * SWEEPS}}})
t.wrap("runner", runner.pt_run)(config, target)
print(json.dumps({{
    "rwm": t.calls("kernels.rwm", "runner"),
    "shape_elements": t.tally.get("targets.shape", 0)}}))
"""


FREEZE = 4

# ALPS with exploration and no initial modes: the registry starts empty,
# so bootstrap searches come first.
EXPLORE_SCRIPT = f"""
import json
import sys

import numpy as np

sys.path.insert(0, "perfbench")
import tracer
from alps import runner
from alps.config import RunConfig
from alps.targets.gaussian import GaussianMixtureTarget

t = tracer.Tracer()
tracer.instrument(t)
config = RunConfig.from_dict({{
    "target": {{"name": "gaussian_mixture"}}, "seed": 0,
    "ladder": {{"betas": [2.0 ** k for k in range({LEVELS})],
                "beta_hot": 0.2}},
    "exploration": {{"step_scale": 3.0}},
    "burnin_samples": {V * FREEZE}, "total_target_samples": {V * SWEEPS}}})
target = GaussianMixtureTarget([0.6, 0.4], [[0.0, 0.0], [3.0, 0.5]],
                               [np.eye(2), 0.5 * np.eye(2)])
_, diag = t.wrap("runner", runner.alps_run)(config, target)
print(json.dumps({{
    "hot_steps": t.calls("exploration.hot_step")
                 + t.calls("exploration.hot_rwm"),
    "mfind": t.calls("exploration.mfind"),
    "bootstrap": sum(rec["sweep"] == -1 for rec in diag.discovery_log),
    "sweeps": diag.n_sweeps}}))
"""


# ALPS with truncated HAT levels.  The tracer patches the level methods
# under both alias names, so each call to one would count twice; after
# the run, one direct call shows the patches are live.
HAT_SCRIPT = f"""
import json
import sys

import numpy as np

sys.path.insert(0, "perfbench")
import tracer
from alps import hat, runner
from alps.config import RunConfig
from alps.targets.gaussian import GaussianMixtureTarget

t = tracer.Tracer()
tracer.instrument(t)
config = RunConfig.from_dict({{
    "target": {{"name": "gaussian_mixture"}}, "seed": 0,
    "ladder": {{"betas": [2.0 ** k for k in range({LEVELS})]}},
    "exploration": None, "truncation": {{"level": 0.99}},
    "initial_modes": [[0.0, 0.0], [3.0, 0.5]],
    "total_target_samples": {V * SWEEPS}}})
target = GaussianMixtureTarget([0.6, 0.4], [[0.0, 0.0], [3.0, 0.5]],
                               [np.eye(2), 0.5 * np.eye(2)])
_, diag = t.wrap("runner", runner.alps_run)(config, target)
names = ("hat.value_and_alloc", "hat.allocate_index", "hat.log_density")
run_calls = {{name: t.calls(name) for name in names}}
run = runner._Run(config, target, np.array(config.ladder.betas), hat=True)
level = hat.Level(target, run.betas[-1], run.snapshot, run.radii[-1])
level.log_density(np.zeros(2))
level.allocate_index(np.zeros(2))
print(json.dumps({{
    "run": run_calls, "probe": {{name: t.calls(name) for name in names}},
    "mixture_log_density": t.calls("kernels.mixture_log_density"),
    "truncated": int(np.isfinite(run.radii).sum()),
    "modes": diag.registry.n_modes, "sweeps": diag.n_sweeps}}))
"""


def traced_counts(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_tracer_patches_see_a_pt_run():
    counts = traced_counts(SCRIPT)
    # one block decision per repetition, for all levels at once
    assert counts["rwm"] == V * SWEEPS
    # the swap phase draws its uniforms in one call and decides each
    # parity's swaps with one swap kernel call
    assert counts["n_swaps"] == PT_LEVELS - 1
    assert counts["swap_standard"] == 2 * SWEEPS
    assert counts["record_sample"] == V * SWEEPS
    # one RWM stream and one swap stream per sweep
    assert counts["substream"] == 2 * SWEEPS


def test_tracer_sees_every_element_of_batched_skew_evaluations():
    counts = traced_counts(SKEW_SCRIPT)
    assert counts["rwm"] == V * SWEEPS
    # one evaluation at set-up and one per RWM proposal
    assert counts["shape_elements"] == DIM * (1 + LEVELS * V * SWEEPS)


def test_tracer_counts_hot_steps_and_searches_of_an_alps_run():
    counts = traced_counts(EXPLORE_SCRIPT)
    assert counts["sweeps"] == SWEEPS and counts["bootstrap"] >= 1
    # the hot chain moves v + 1 steps per search, bootstrap searches
    # included, and stops at the freeze
    assert counts["hot_steps"] == (V + 1) * (counts["bootstrap"] + FREEZE)
    # one search per bootstrap attempt and per sweep before the freeze
    assert counts["mfind"] == counts["bootstrap"] + FREEZE


def test_traced_truncated_alps_run_calls_no_patched_level_method():
    counts = traced_counts(HAT_SCRIPT)
    assert counts["sweeps"] == SWEEPS and counts["modes"] == 2
    assert counts["truncated"] == LEVELS - 1
    assert counts["run"] == {"hat.value_and_alloc": 0,
                             "hat.allocate_index": 0, "hat.log_density": 0}
    # one direct call of each is counted once per alias
    assert counts["probe"] == {"hat.value_and_alloc": 2,
                               "hat.allocate_index": 2, "hat.log_density": 2}
    # a leap phase scores the mixture densities of its V proposals and
    # of the chain's state in one call
    assert counts["mixture_log_density"] == SWEEPS
