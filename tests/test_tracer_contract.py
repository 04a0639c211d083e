"""The benchmark tracer (perfbench/tracer.py) patches alps functions by
name; every name it patches must exist and still see the sweep's calls.

The patches replace module attributes for the rest of a process, so the
traced run happens in a subprocess.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
V, SWEEPS, LEVELS = 5, 10, 3

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
    "target": {{"name": "gaussian"}}, "seed": 0, "v": {V},
    "ladder": {{"betas": [0.5 ** k for k in range({LEVELS})]}},
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
    "target": {{"name": "iid_product_skew"}}, "seed": 0, "v": {V},
    "ladder": {{"betas": [0.5 ** k for k in range({LEVELS})]}},
    "exploration": None, "total_target_samples": {V * SWEEPS}}})
t.wrap("runner", runner.pt_run)(config, target)
print(json.dumps({{
    "rwm": t.calls("kernels.rwm", "runner"),
    "shape_elements": t.tally.get("targets.shape", 0)}}))
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
    assert counts["rwm"] == V * SWEEPS * LEVELS
    # the swap phase draws its uniforms in one call, and still calls the
    # swap kernel once per swap
    assert counts["swap_standard"] == SWEEPS * counts["n_swaps"] > 0
    assert counts["record_sample"] == V * SWEEPS
    # one stream per level and one swap stream per sweep
    assert counts["substream"] == SWEEPS * (LEVELS + 1)


def test_tracer_sees_every_element_of_batched_skew_evaluations():
    counts = traced_counts(SKEW_SCRIPT)
    assert counts["rwm"] == V * SWEEPS * LEVELS
    # one evaluation per level at set-up and one per RWM proposal
    assert counts["shape_elements"] == LEVELS * DIM * (1 + V * SWEEPS)
