"""Run artifacts: trace.csv, acceptance.json, modes.json, timing.json,
summary.json.  All files are UTF-8 (floats serialized via repr, JSON keys
sorted).  All but timing.json, which holds wall-clock seconds, are
byte-reproducible for a fixed seed."""

from __future__ import annotations

import json
import logging
import os

import numpy as np

from .config import ConfigError, RunConfig
from .diagnostics import RunDiagnostics, running_prob_estimate

logger = logging.getLogger(__name__)

TRACE_THINNING = 10


def prepare_out_dir(path: str) -> None:
    """Create the output directory and verify it is writable."""
    try:
        os.makedirs(path, exist_ok=True)
        probe = os.path.join(path, ".write_probe")
        with open(probe, "w", encoding="utf-8") as fh:
            fh.write("ok")
        os.remove(probe)
    except OSError as err:
        raise ConfigError(f"output directory {path!r} is not writable: {err}")


def _write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_trace(path: str, samples: np.ndarray, config: RunConfig) -> None:
    """Every TRACE_THINNING-th sample; each sweep records v of them."""
    header = "sweep," + ",".join(f"x{i}" for i in range(samples.shape[1]))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(header + "\n")
        for i in range(0, len(samples), TRACE_THINNING):
            coords = ",".join(repr(float(v)) for v in samples[i])
            fh.write(f"{i // config.v},{coords}\n")


def emit_outputs(diag: RunDiagnostics, config: RunConfig) -> dict:
    """Write all artifacts into config.out_dir; returns {name: path}."""
    out = config.out_dir
    if not out:
        raise ConfigError("no output directory configured")
    prepare_out_dir(out)
    paths = {name: os.path.join(out, name)
             for name in ("trace.csv", "acceptance.json", "modes.json",
                          "timing.json", "summary.json")}

    n_recorded = min(diag.n_recorded, config.total_target_samples)
    samples = diag.samples[:n_recorded]
    _write_trace(paths["trace.csv"], samples, config)
    _write_json(paths["acceptance.json"], diag.acceptance_dict())

    if diag.registry is not None and diag.registry.n_modes > 0:
        modes = json.loads(diag.registry.to_json())
        snapshot = diag.registry.snapshot()
        modes["log_weights"] = [float(w) for w in snapshot.log_weights]
    else:
        modes = {"modes": [], "n_modes": 0}
    _write_json(paths["modes.json"], modes)

    per_1000 = (1000.0 * diag.sweep_seconds / n_recorded
                if n_recorded else None)
    _write_json(paths["timing.json"], {
        "total_seconds": diag.sweep_seconds,
        "n_sweeps": diag.n_sweeps,
        "n_target_samples": n_recorded,
        "seconds_per_1000_target_samples": per_1000,
    })

    running_terminal = None
    if (config.running_threshold is not None
            and n_recorded > config.burnin_samples):
        est = running_prob_estimate(samples[:, 0], config.running_threshold,
                                    config.burnin_samples)
        running_terminal = float(est[-1])
    _write_json(paths["summary.json"], {
        "seed": config.seed,
        "n_sweeps": diag.n_sweeps,
        "n_target_samples": n_recorded,
        "running_threshold": config.running_threshold,
        "running_estimate_terminal": running_terminal,
        "mode_visit_counts": diag.mode_visit_counts(),
        "n_modes": (diag.registry.n_modes if diag.registry is not None
                    else None),
        "registry_events": diag.registry_events,
        "tuned_step_scales": [float(s) for s in diag.tuned_step_scales],
    })
    logger.info("wrote outputs to %s", out)
    return paths
