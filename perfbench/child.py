"""One benchmark repetition in a fresh process.

Usage (from the checkout root, with PYTHONPATH=src):
    python3 perfbench/child.py '<json spec>'

The spec names the workload, seed, output directory, config override
file, whether to trace, and an optional injected fault.  The process
runs the workload through `alps.cli.main` exactly as a user would, with
timing hooks on the module attributes the CLI looks up, then checks the
workload's gate and fingerprints the artifacts.  Its last stdout line is
one JSON result; a failure anywhere becomes an error record in that
result, never a crash.
"""

import time

T_START = time.perf_counter()

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import types  # noqa: E402

FINGERPRINTED = {
    "sampler": ("trace.csv", "acceptance.json", "modes.json", "summary.json"),
    "scaling": ("scaling.csv",),
}
ARTIFACTS = ("trace.csv", "acceptance.json", "modes.json", "timing.json",
             "summary.json", "scaling.csv")


class InjectedFault(RuntimeError):
    """Raised on request to exercise the failure path."""


class CommandFailed(RuntimeError):
    """`alps` returned a non-zero exit status."""


class Capture:
    """Timing hooks on the CLI's lookups; records the objects a gate needs."""

    def __init__(self, tracer, fault):
        self.tracer = tracer
        self.fault = fault
        self.stage = "import"
        self.marks = {}
        self.config = self.target = self.diag = self.samples = None
        self.runner_s = 0.0

    def enter(self, stage):
        self.stage = stage
        self.marks.setdefault(stage, time.perf_counter())
        if self.fault == stage:
            raise InjectedFault(f"fault injected at stage {stage!r}")

    def install(self, cli, scaling, command):
        load_config, build_target = cli.load_config, cli.build_target
        emit_outputs, run_scaling = cli.emit_outputs, cli.scaling_experiment
        envelope = scaling._envelope_log_constant

        def hooked_load_config(*args, **kwargs):
            self.enter("load_config")
            self.config = load_config(*args, **kwargs)
            return self.config

        def hooked_build_target(*args, **kwargs):
            self.enter("build_target")
            self.target = build_target(*args, **kwargs)
            if self.tracer is not None:
                self.tracer.patch_target(self.target)
            return self.target

        def hooked_emit_outputs(*args, **kwargs):
            self.enter("emit_outputs")
            paths = emit_outputs(*args, **kwargs)
            self.marks["emitted"] = time.perf_counter()
            return paths

        def hooked_scaling(*args, **kwargs):
            self.enter("scaling_experiment")
            rows = run_scaling(*args, **kwargs)
            self.marks["scaled"] = time.perf_counter()
            self.stage = "write_csv"
            return rows

        def hooked_envelope(*args, **kwargs):
            # the first per-dimension step: scaling set-up ends here
            self.marks.setdefault("first_dimension", time.perf_counter())
            return envelope(*args, **kwargs)

        cli.load_config = hooked_load_config
        cli.build_target = hooked_build_target
        cli.emit_outputs = hooked_emit_outputs
        cli.scaling_experiment = hooked_scaling
        scaling._envelope_log_constant = hooked_envelope
        if command in cli._RUNNERS:
            runner = cli._RUNNERS[command]
            if self.tracer is not None:
                runner = self.tracer.wrap("runner", runner)

            def hooked_runner(config, target):
                self.enter("runner")
                start = time.perf_counter()
                self.samples, self.diag = runner(config, target)
                self.runner_s = time.perf_counter() - start
                return self.samples, self.diag

            cli._RUNNERS[command] = hooked_runner


def _sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _error_record(err, stage):
    frames = traceback.extract_tb(err.__traceback__)
    inner = [f for f in frames if f"{os.sep}alps{os.sep}" in f.filename]
    where = frames[-1] if frames else None
    return {
        "type": type(err).__name__,
        "message": str(err),
        "stage": stage,
        "where": (f"{os.path.relpath(where.filename)}:{where.lineno} "
                  f"in {where.name}") if where else None,
        "alps_frames": [f"{os.path.relpath(f.filename)}:{f.lineno} in {f.name}"
                        for f in inner],
    }


def run(spec):
    import alps.cli
    import alps.scaling
    t_import = time.perf_counter()
    import numpy
    import scipy

    import tracer as tracing
    import workloads
    wl = workloads.WORKLOADS[spec["workload"]]
    versions = {"python": sys.version.split()[0],
                "numpy": numpy.__version__, "scipy": scipy.__version__}
    tracer = None
    if spec["trace"]:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    cap = Capture(tracer, spec.get("fault"))
    cap.install(alps.cli, alps.scaling, wl.command)
    result = {"ok": False, "error": None, "gate": None, "fingerprint": {},
              "versions": versions}
    out_dir = spec["out_dir"]
    argv = wl.argv(spec["seed"], out_dir, spec.get("config_path"),
                   spec.get("smoke", False))
    cli_out, cli_err = io.StringIO(), io.StringIO()
    try:
        cap.enter("cli")
        with contextlib.redirect_stdout(cli_out), contextlib.redirect_stderr(cli_err):
            status = alps.cli.main(argv)
        t_end = time.perf_counter()
        if status != 0:
            raise CommandFailed(f"alps {argv[0]} exited with status "
                                f"{status}: {cli_err.getvalue().strip()}")
    except Exception as err:  # the boundary: record, never crash
        result["error"] = _error_record(err, cap.stage)
        return result

    if wl.is_sampler:
        sweep_s = cap.diag.sweep_seconds
        setup_end = cap.marks["runner"] + cap.runner_s - sweep_s
        n_samples = int(cap.samples.shape[0])
        emit_s = t_end - cap.marks["emit_outputs"]
        names = FINGERPRINTED["sampler"]
    else:
        sweep_s = 0.0
        setup_end = cap.marks["first_dimension"]
        n_samples = 0
        emit_s = t_end - cap.marks["scaled"]
        names = FINGERPRINTED["scaling"]
    usage = resource.getrusage(resource.RUSAGE_SELF)
    metrics = {
        "setup_s": setup_end - T_START,
        "run_s": t_end - T_START,
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
        "cpu_s": usage.ru_utime + usage.ru_stime,
    }
    if wl.is_sampler:
        metrics["sweep_s_per_1k"] = 1000.0 * sweep_s / n_samples
    result["metrics"] = metrics
    result["timeline_s"] = {k: v - T_START for k, v in sorted(cap.marks.items(),
                                                               key=lambda kv: kv[1])}
    result["timeline_s"]["import_alps"] = t_import - T_START
    result["fingerprint"] = {name: _sha256(os.path.join(out_dir, name))
                             for name in names}
    out_bytes = sum(os.path.getsize(os.path.join(out_dir, name))
                    for name in ARTIFACTS
                    if os.path.exists(os.path.join(out_dir, name)))
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer, cap.diag, n_samples,
                                                 sweep_s, emit_s, out_bytes)
        with open(os.path.join(out_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(tracer.span_rows(), fh, indent=1)

    ctx = types.SimpleNamespace(samples=cap.samples, diag=cap.diag,
                                target=cap.target, config=cap.config,
                                out_dir=out_dir)
    try:
        passed, checks = wl.gate(ctx)
    except Exception as err:  # a gate that cannot be evaluated fails
        result["error"] = _error_record(err, "gate")
        return result
    result["gate"] = {"passed": bool(passed), "checks": checks}
    result["ok"] = bool(passed)
    return result


def main():
    spec = json.loads(sys.argv[1])
    if spec.get("warmup"):
        import alps.cli  # noqa: F401  (fills the bytecode caches)
        import tracer  # noqa: F401
        import workloads  # noqa: F401
        print(json.dumps({"ok": True}))
        return 0
    try:
        result = run(spec)
    except Exception as err:  # import failures and bench bugs alike
        result = {"ok": False, "error": _error_record(err, "bench"),
                  "gate": None, "fingerprint": {}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
