"""Outside-in per-layer tracing of one alps run.

Public functions are wrapped where their callers look them up (module
attributes and class attributes), so the package itself is unchanged.
Spans are aggregated in memory by (name, parent): calls, total time and
self time, where self time is a span's duration minus the time covered
by its child spans.  Wrappers may also sum a tally over each call's
arguments and result (accepted moves, converged searches, elements).
"""

from __future__ import annotations

import time

import numpy as np

# Per-layer metrics reported by a traced run, in output order.
LAYER_METRICS = [
    ("targets.log_density.calls", "count"),
    ("targets.log_density.self_s", "s"),
    ("targets.evals_per_sample", "evals/sample"),
    ("targets.gradient.calls", "count"),
    ("targets.gradient.self_s", "s"),
    ("targets.hessian.calls", "count"),
    ("targets.hessian.self_s", "s"),
    ("targets.shape.elements", "count"),
    ("targets.shape.ns_per_element", "ns"),
    ("targets.shape.bytes_computed", "B"),
    ("registry.quad_forms.calls", "count"),
    ("registry.quad_forms.self_s", "s"),
    ("registry.try_insert.calls", "count"),
    ("registry.insert_ratio", "ratio"),
    ("registry.rebuilds", "count"),
    ("hat.value_and_alloc.calls", "count"),
    ("hat.value_and_alloc.self_s", "s"),
    ("hat.allocate_index.calls", "count"),
    ("hat.allocate_index.self_s", "s"),
    ("hat.log_density.calls", "count"),
    ("hat.log_density.self_s", "s"),
    ("kernels.rwm.calls", "count"),
    ("kernels.rwm.self_s", "s"),
    ("kernels.rwm.accept_ratio", "ratio"),
    ("kernels.leap.calls", "count"),
    ("kernels.leap.self_s", "s"),
    ("kernels.leap.accept_ratio", "ratio"),
    ("kernels.swap_quanta.calls", "count"),
    ("kernels.swap_quanta.self_s", "s"),
    ("kernels.swap_quanta.accept_ratio", "ratio"),
    ("kernels.swap_standard.calls", "count"),
    ("kernels.swap_standard.self_s", "s"),
    ("kernels.swap_standard.accept_ratio", "ratio"),
    ("kernels.mixture_log_density.calls", "count"),
    ("kernels.mixture_log_density.self_s", "s"),
    ("exploration.mfind.calls", "count"),
    ("exploration.mfind.total_s", "s"),
    ("exploration.found_ratio", "ratio"),
    ("exploration.hot_steps", "count"),
    ("exploration.hot.accept_ratio", "ratio"),
    ("optimize.local_optimize.calls", "count"),
    ("optimize.local_optimize.total_s", "s"),
    ("optimize.converged_ratio", "ratio"),
    ("optimize.gradients_per_call", "count"),
    ("rng.substream.calls", "count"),
    ("rng.substream.self_s", "s"),
    ("runner.phase_s.rwm", "s"),
    ("runner.phase_s.leap", "s"),
    ("runner.phase_s.swaps", "s"),
    ("runner.phase_s.exploration", "s"),
    ("runner.phase_s.bookkeeping", "s"),
    ("runner.self_s", "s"),
    ("diagnostics.record_sample.calls", "count"),
    ("diagnostics.record_sample.self_s", "s"),
    ("outputs.emit_s", "s"),
    ("outputs.bytes", "B"),
    ("trace.overhead_frac", "ratio"),
]

# The skew log-pdf reads one float64 array and writes one of equal size.
_SHAPE_BYTES_PER_ELEMENT = 16


class Tracer:
    def __init__(self):
        self._stack: list = []   # [name, child seconds] per open span
        self.spans: dict = {}    # (name, parent) -> [calls, total_s, self_s]
        self.tally: dict = {}    # name -> summed tally

    def wrap(self, name: str, fn, tally=None):
        stack, spans = self._stack, self.spans

        def traced(*args, **kwargs):
            parent = stack[-1][0] if stack else ""
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - start
                stack.pop()
                cell = spans.setdefault((name, parent), [0, 0.0, 0.0])
                cell[0] += 1
                cell[1] += dur
                cell[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if tally is not None:
                self.tally[name] = self.tally.get(name, 0) + tally(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def patch(self, owner, attr: str, name: str, tally=None) -> None:
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), tally))

    def patch_target(self, target) -> None:
        """Wrap the density callbacks on the target instance the run uses."""
        for attr in ("log_density", "gradient", "hessian"):
            self.patch(target, attr, f"targets.{attr}")

    def _sum(self, name: str, field: int, parent: str | None) -> float:
        return sum(cell[field] for (n, p), cell in self.spans.items()
                   if n == name and (parent is None or p == parent))

    def calls(self, name: str, parent: str | None = None) -> int:
        return int(self._sum(name, 0, parent))

    def total_s(self, name: str, parent: str | None = None) -> float:
        return self._sum(name, 1, parent)

    def self_s(self, name: str) -> float:
        return self._sum(name, 2, None)

    def span_rows(self) -> list:
        return [{"name": n, "parent": p, "calls": c, "total_s": t, "self_s": s}
                for (n, p), (c, t, s) in sorted(self.spans.items())]


def _returned(index: int):
    return lambda args, result: int(bool(result[index]))


def instrument(tracer: Tracer) -> None:
    """Wrap the layer functions of the imported alps package."""
    import alps.diagnostics
    import alps.exploration
    import alps.hat
    import alps.kernels
    import alps.registry
    import alps.rng
    import alps.runner
    import alps.targets.product

    runner = alps.runner
    tracer.patch(runner, "rwm_core_alloc", "kernels.rwm")
    tracer.patch(runner, "mode_leap_core", "kernels.leap")
    tracer.patch(runner, "quanta_swap_core", "kernels.swap_quanta")
    tracer.patch(runner, "standard_swap_core", "kernels.swap_standard")
    tracer.patch(alps.kernels, "mixture_log_density",
                 "kernels.mixture_log_density")
    tracer.patch(runner, "_exploration_phase", "runner.exploration")
    tracer.patch(runner, "mfind", "exploration.mfind", _returned(2))
    tracer.patch(runner, "rwm_core", "exploration.hot_rwm", _returned(2))
    tracer.patch(alps.exploration, "hot_step", "exploration.hot_step",
                 _returned(1))
    for module in (runner, alps.exploration):
        tracer.patch(module, "local_optimize", "optimize.local_optimize",
                     _returned(1))
        tracer.patch(module, "try_insert", "registry.try_insert", _returned(1))
    tracer.patch(alps.registry.RegistrySnapshot, "quad_forms",
                 "registry.quad_forms")
    for cls in (alps.hat.HatTarget, alps.hat.TruncatedHatTarget):
        tracer.patch(cls, "value_and_alloc", "hat.value_and_alloc")
        tracer.patch(cls, "allocate_index", "hat.allocate_index")
        tracer.patch(cls, "log_density", "hat.log_density")
    tracer.patch(alps.rng, "substream", "rng.substream")
    tracer.patch(alps.diagnostics.RunDiagnostics, "record_sample",
                 "diagnostics.record_sample")
    tracer.patch(alps.targets.product, "skew_log_pdf", "targets.shape",
                 lambda args, result: int(np.size(args[0])))


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _acceptance(diag, move: str) -> float:
    if diag is None:
        return 0.0
    acc = tot = 0
    for (mv, _), (a, n) in diag.counters.items():
        if mv == move:
            acc += a
            tot += n
    return _ratio(acc, tot)


def layer_metrics(tracer: Tracer, diag, n_samples: int,
                  sweep_s: float, emit_s: float, out_bytes: int) -> dict:
    """Per-layer values (trace.overhead_frac is filled in by the caller)."""
    t = tracer
    m = {}
    for layer in ("targets.log_density", "targets.gradient", "targets.hessian",
                  "registry.quad_forms", "hat.value_and_alloc",
                  "hat.allocate_index", "hat.log_density",
                  "kernels.mixture_log_density", "rng.substream",
                  "diagnostics.record_sample"):
        m[f"{layer}.calls"] = t.calls(layer)
        m[f"{layer}.self_s"] = t.self_s(layer)
    m["targets.evals_per_sample"] = _ratio(t.calls("targets.log_density"),
                                           n_samples)
    elements = t.tally.get("targets.shape", 0)
    m["targets.shape.elements"] = elements
    m["targets.shape.ns_per_element"] = _ratio(
        1e9 * t.self_s("targets.shape"), elements)
    m["targets.shape.bytes_computed"] = elements * _SHAPE_BYTES_PER_ELEMENT

    inserts = t.calls("registry.try_insert")
    m["registry.try_insert.calls"] = inserts
    m["registry.insert_ratio"] = _ratio(t.tally.get("registry.try_insert", 0),
                                        inserts)
    m["registry.rebuilds"] = len(diag.registry_events) if diag is not None else 0

    for kernel, move in (("rwm", "rwm"), ("leap", "leap"),
                         ("swap_quanta", "swap_quanta"),
                         ("swap_standard", "swap_standard")):
        name = f"kernels.{kernel}"
        m[f"{name}.calls"] = t.calls(name)
        m[f"{name}.self_s"] = t.self_s(name)
        m[f"{name}.accept_ratio"] = _acceptance(diag, move)

    searches = t.calls("exploration.mfind")
    m["exploration.mfind.calls"] = searches
    m["exploration.mfind.total_s"] = t.total_s("exploration.mfind")
    m["exploration.found_ratio"] = _ratio(t.tally.get("exploration.mfind", 0),
                                          searches)
    hot_steps = t.calls("exploration.hot_step") + t.calls("exploration.hot_rwm")
    m["exploration.hot_steps"] = hot_steps
    m["exploration.hot.accept_ratio"] = _ratio(
        t.tally.get("exploration.hot_step", 0)
        + t.tally.get("exploration.hot_rwm", 0), hot_steps)

    opt = t.calls("optimize.local_optimize")
    m["optimize.local_optimize.calls"] = opt
    m["optimize.local_optimize.total_s"] = t.total_s("optimize.local_optimize")
    m["optimize.converged_ratio"] = _ratio(
        t.tally.get("optimize.local_optimize", 0), opt)
    m["optimize.gradients_per_call"] = _ratio(
        t.calls("targets.gradient", parent="optimize.local_optimize"), opt)

    phases = {
        "rwm": t.total_s("kernels.rwm", "runner"),
        "leap": t.total_s("kernels.leap", "runner"),
        "swaps": (t.total_s("kernels.swap_quanta", "runner")
                  + t.total_s("kernels.swap_standard", "runner")),
        "exploration": t.total_s("runner.exploration", "runner"),
        "bookkeeping": t.total_s("hat.allocate_index", "runner"),
    }
    for phase, seconds in phases.items():
        m[f"runner.phase_s.{phase}"] = seconds
    m["runner.self_s"] = sweep_s - sum(phases.values()) if sweep_s else 0.0
    m["outputs.emit_s"] = emit_s
    m["outputs.bytes"] = out_bytes
    return m
