"""ALPS benchmark: end-to-end timings, known-answer gates, per-layer trace.

Run from the root of a checkout:

    python3 perfbench/run.py --workload pt-skew --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --report            # every workload, one table
    python3 perfbench/run.py --report --trace 1  # per-layer metrics as well
    python3 perfbench/run.py --smoke             # quick self-check

Each repetition runs in its own child process (perfbench/child.py) with
BLAS/OpenMP pinned to one thread, one at a time, until --seconds have
passed.  All repetitions of one invocation use the same seed, so their
artifact fingerprints must agree.  With --trace 1, untraced and traced
repetitions alternate; the per-layer numbers come from the traced ones.
The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

OUT_ROOT = ".perfbench_out"
CHILD_TIMEOUT_S = 150.0   # for all repetitions of one invocation together
WARMUP_TIMEOUT_S = 20.0
END_TO_END = [("setup_s", "s"), ("run_s", "s"), ("peak_rss_mib", "MiB")]
REPORT_ONLY = [("sweep_s_per_1k", "s"), ("cpu_s", "s")]
PINNED_THREADS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    # the warm-up child fills the bytecode caches that users' runs read
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    for var in PINNED_THREADS:
        env[var] = "1"
    return env


def run_child(spec: dict, timeout: float) -> dict:
    """Run one repetition; a child that dies or hangs is a failed operation."""
    cmd = [sys.executable, os.path.join(HERE, "child.py"), json.dumps(spec)]
    try:
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return {"ok": False, "fingerprint": {}, "error": {
            "type": "Timeout", "message": f"no result within {timeout:.0f} s",
            "stage": "child"}}
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"ok": False, "fingerprint": {}, "error": {
            "type": "ChildCrashed",
            "message": f"exit status {proc.returncode}: "
                       f"{proc.stderr.strip()[-500:]}",
            "stage": "child"}}


def _digest(paths) -> str:
    h = hashlib.sha256()
    for root in paths:
        for dirpath, dirnames, filenames in sorted(os.walk(root)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def _git_commit() -> str:
    """HEAD commit read from ./.git without running git (which would
    search parent directories when this is not a repository)."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(".git", ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(seed: int, digests: dict, versions: dict | None) -> dict:
    return {"seed": seed, "git_commit": _git_commit(), **digests,
            "cpu_model": _cpu_model(), "nproc": os.cpu_count(),
            "threads_pinned": {v: "1" for v in PINNED_THREADS},
            "versions": versions or {"python": platform.python_version()}}


def _fingerprint_store(key: str, fingerprint: dict) -> str | None:
    """Compare with the fingerprint recorded for the same code and seed by an
    earlier invocation; returns a mismatch message or None."""
    path = os.path.join(OUT_ROOT, "fingerprints.json")
    try:
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, json.JSONDecodeError):
        store = {}
    known = store.get(key)
    if known is not None and known != fingerprint:
        return f"artifacts differ from an earlier run at the same seed ({key})"
    store[key] = fingerprint
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    return None


def measure(name: str, seed: int, seconds: float, trace: bool,
            smoke: bool = False, fault: str | None = None) -> dict:
    """Repeat one workload in fresh processes and aggregate the results."""
    wl = WORKLOADS[name]
    base = os.path.join(OUT_ROOT, name, f"seed{seed}")
    shutil.rmtree(base, ignore_errors=True)
    os.makedirs(base)
    config_path = None
    if wl.is_sampler:
        config_path = os.path.join(base, "config.json")
        with open(config_path, "w", encoding="utf-8") as fh:
            json.dump(wl.config(smoke), fh)
    run_child({"warmup": True}, WARMUP_TIMEOUT_S)

    reps, start = [], time.perf_counter()
    while True:
        for traced in ((False, True) if trace else (False,)):
            out_dir = os.path.join(base, f"rep{len(reps)}")
            remaining = CHILD_TIMEOUT_S - (time.perf_counter() - start)
            res = run_child({"workload": name, "seed": seed, "out_dir": out_dir,
                             "config_path": config_path, "trace": traced,
                             "smoke": smoke, "fault": fault}, remaining)
            res["traced"] = traced
            reps.append(res)
            if len(reps) > 2:  # keep the first and latest artifacts only
                shutil.rmtree(os.path.join(base, f"rep{len(reps) - 2}"),
                              ignore_errors=True)
        if time.perf_counter() - start >= seconds:
            break

    digests = {"source_sha256": _digest(["src"]),
               "bench_sha256": _digest([os.path.relpath(HERE)])}
    bench_key = "|".join([name, str(seed), str(int(smoke)), *digests.values()])
    first = next((r["fingerprint"] for r in reps if r.get("ok")), None)
    for r in reps:
        if r.get("ok") and r["fingerprint"] != first:
            r["ok"] = False
            r["error"] = {"type": "NonDeterministic", "stage": "fingerprint",
                          "message": "artifacts differ between repetitions "
                                     "at the same seed"}
    if first is not None:
        mismatch = _fingerprint_store(bench_key, first)
        if mismatch:
            for r in reps:
                r["ok"] = False
                r["error"] = {"type": "NonDeterministic", "stage": "fingerprint",
                              "message": mismatch}

    failed = sum(not r.get("ok") for r in reps)
    plain = [r for r in reps if not r["traced"] and r.get("ok")]
    traced_ok = [r for r in reps if r["traced"] and r.get("ok")]
    summary = {"workload": name, "seed": seed, "trace": trace, "smoke": smoke,
               "attempted": len(reps), "failed": failed, "reps": reps,
               "fingerprint": first,
               "provenance": provenance(seed, digests, next(
                   (r.get("versions") for r in reps if r.get("versions")), None))}
    metrics = {}
    if failed == 0:
        for key, unit in END_TO_END + REPORT_ONLY:
            values = [r["metrics"][key] for r in plain if key in r["metrics"]]
            if values:
                metrics[key] = {"value": statistics.median(values), "unit": unit}
    layers = {}
    if failed == 0 and trace:
        for key, unit in tracer.LAYER_METRICS:
            if key == "trace.overhead_frac":
                value = (statistics.median(r["metrics"]["run_s"] for r in traced_ok)
                         / metrics["run_s"]["value"] - 1.0)
            else:
                value = statistics.median(r["layers"][key] for r in traced_ok)
            layers[key] = {"value": value, "unit": unit}
    summary["metrics"], summary["layers"] = metrics, layers
    os.makedirs(os.path.join(OUT_ROOT, "results"), exist_ok=True)
    with open(os.path.join(OUT_ROOT, "results",
                           f"{name}-seed{seed}-trace{int(trace)}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)
    return summary


def contract_line(summary: dict) -> dict:
    failed = summary["failed"]
    if failed:
        metrics = {}
    elif summary["trace"]:
        metrics = summary["layers"]
    else:
        metrics = {k: summary["metrics"][k] for k, _ in END_TO_END}
    return {"correct": failed == 0, "attempted": summary["attempted"],
            "failed": failed, "metrics": metrics}


def print_summary(summary: dict) -> None:
    print(f"== {summary['workload']}  seed={summary['seed']}  "
          f"trace={int(summary['trace'])}  failures "
          f"{summary['failed']}/{summary['attempted']}")
    for i, r in enumerate(summary["reps"]):
        tag = "traced" if r["traced"] else "plain "
        if r.get("ok") or r.get("gate"):
            m = r.get("metrics", {})
            gate = "pass" if r["gate"] and r["gate"]["passed"] else "FAIL"
            print(f"  rep {i} {tag} gate={gate} run_s={m.get('run_s', 0):.4f} "
                  f"setup_s={m.get('setup_s', 0):.4f}")
        if r.get("error"):
            e = r["error"]
            print(f"  rep {i} {tag} FAILED {e['type']}: {e['message']} "
                  f"[stage {e['stage']}; {e.get('where')}]")
    gate = next((r["gate"] for r in summary["reps"] if r.get("gate")), None)
    if gate:
        print("  gate " + ("pass" if gate["passed"] else "FAIL") + ": " + ", ".join(
            f"{k}={c['value']:.6g}" + ("" if c["passed"] else " (out of band)")
            for k, c in gate["checks"].items()))
    for key, entry in summary["metrics"].items():
        print(f"  {key:<16} {entry['value']:.4f} {entry['unit']}")
    for key, entry in summary["layers"].items():
        print(f"  {key:<38} {entry['value']:.6g} {entry['unit']}")


def smoke() -> int:
    """Tiny runs of every workload plus an injected fault and gate self-tests."""
    import numpy as np

    import gates
    problems = []
    rng = np.random.default_rng(0)
    delta = 10.0 / np.sqrt(101.0)
    u0, u1 = rng.standard_normal((2, 20000, 5))
    draws = delta * np.abs(u0) + np.sqrt(1.0 - delta ** 2) * u1
    locs, scales = np.zeros((1, 5)), np.ones(1)
    if not gates.skew_moment_gate(draws, locs, scales, 10.0, 0.02, 0.02)[0]:
        problems.append("moment gate rejects exact skew-normal draws")
    if gates.skew_moment_gate(draws + 0.1, locs, scales, 10.0, 0.02, 0.02)[0]:
        problems.append("moment gate accepts shifted draws")
    if gates.scaling_gate([10, 80], [0.60, 0.59], [0.001, 0.001], [0.56, 0.56], 0.02)[0]:
        problems.append("scaling gate accepts a gap that does not close")

    results = [measure(name, 1, 0.0, trace=True, smoke=True)
               for name in WORKLOADS]
    results.append(measure("pt-skew", 1, 0.0, trace=False, smoke=True,
                           fault="runner"))
    for s in results:
        print_summary(s)
        line = contract_line(s)
        if set(line) != {"correct", "attempted", "failed", "metrics"}:
            problems.append(f"{s['workload']}: bad result keys {sorted(line)}")
        for r in s["reps"]:
            if not r.get("ok") and not (r.get("error") or r.get("gate")):
                problems.append(f"{s['workload']}: failure without a record")
            if r.get("error") and not {"type", "message", "stage"} <= set(r["error"]):
                problems.append(f"{s['workload']}: incomplete error record")
        if s["failed"] == 0:
            want = {k for k, _ in tracer.LAYER_METRICS}
            if set(s["layers"]) != want:
                problems.append(f"{s['workload']}: per-layer metrics incomplete")
    injected = results[-1]["reps"][0].get("error") or {}
    if injected.get("type") != "InjectedFault" or injected.get("stage") != "runner":
        problems.append(f"injected fault not recorded as such: {injected}")
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        declared = json.load(fh)
    if [m["name"] for m in declared["per_layer"]] != [k for k, _ in tracer.LAYER_METRICS]:
        problems.append("BENCHMARK.json per_layer names differ from tracer.LAYER_METRICS")
    if [m["name"] for m in declared["end_to_end"]] != [k for k, _ in END_TO_END]:
        problems.append("BENCHMARK.json end_to_end names differ from END_TO_END")
    for problem in problems:
        print(f"SMOKE PROBLEM: {problem}")
    print("smoke: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--report", action="store_true",
                        help="run every workload in turn and print each")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny self-check of workloads, gates and schema")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "alps", "__init__.py")):
        print("perfbench: no alps sources under ./src; run from the root of "
              "a checkout", file=sys.stderr)
        return 2
    os.makedirs(OUT_ROOT, exist_ok=True)
    if args.smoke:
        return smoke()
    if args.report:
        lines = {}
        for name in WORKLOADS:
            summary = measure(name, args.seed, args.seconds, bool(args.trace))
            print_summary(summary)
            lines[name] = contract_line(summary)
        print(json.dumps(lines))
        return 0
    if not args.workload:
        parser.error("--workload, --report or --smoke is required")
    summary = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_summary(summary)
    print(json.dumps({"provenance": summary["provenance"],
                      "fingerprint": summary["fingerprint"]}))
    print(json.dumps(contract_line(summary)))
    return 0 if summary["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
