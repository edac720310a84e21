"""Span tracing around nmdyn's public functions, for the traced run.

The traced run is a separate process that imports nmdyn, wraps the functions
in ``LAYERS`` and runs one workload in-process.  Modules bind names at import
(``integrator`` imports ``nonlinearity_G``), so a wrapper replaces the name in
every module namespace that holds the original function.  Wrappers take
``*args, **kwargs``; a name that no longer exists is reported as absent.

Each span records (id, name, start, end, parent id, thread id, extra), where
extra is the nodes a G call evaluates or the bytes a push keeps; spans
stay in memory and are written when the workload ends.  A span's parent is
the innermost open span on the same thread, so a span that waits for worker
threads (``push_forward`` with ``--threads 2``) keeps that wait in its self
time, and the workers' spans have no parent.

Run as a script it is the traced child:
    python3 perfbench/tracer.py <workload> <scenario.json> <out dir> <spans.json>
"""

from __future__ import annotations

import functools
import importlib.util
import itertools
import json
import sys
import threading
import time

LAYERS = {
    "geometry": ("build_kgrid", "polarization_basis"),
    "state": ("free_flow", "phase_norm", "real_inner"),
    "interaction": ("check_hypotheses", "nonlinearity_G", "hamiltonian", "vartheta",
                    "vector_potential", "grad_vector_potential", "nonlinearity_F",
                    "characteristic_density_m"),
    "integrator": ("strang_step", "rk4_interaction_step", "evolve", "divergence_report"),
    "measures": ("sample_measure", "push_forward", "characteristic_residual",
                 "moment_report", "ensemble_to_csv"),
    "cli": ("load_config", "run_suite"),
}
STEPS = ("integrator.strang_step", "integrator.rk4_interaction_step")
G = "interaction.nonlinearity_G"
PUSH = "measures.push_forward"
RUN_SUITE = "cli.run_suite"


def _node_evaluations(args, kwargs):
    """Nodes one G call evaluates: alpha is (d-1, M), or (S, d-1, M) batched."""
    for value in (*args, *kwargs.values()):
        alpha = getattr(value, "alpha", None)
        if alpha is not None and getattr(alpha, "ndim", 0) >= 2:
            return alpha.size // alpha.shape[-2]
    return 0


def _kept_bytes(ensemble):
    """Bytes held by the stored trajectories of a pushed ensemble."""
    total = 0
    for traj in getattr(ensemble, "trajectories", None) or ():
        for value in vars(traj).values():
            total += getattr(value, "nbytes", 0)
        for fld in getattr(traj, "stored_fields", ()):
            total += getattr(getattr(fld, "values", None), "nbytes", 0)
    return total


# per-span figure recorded with some spans: (args, kwargs, result) -> number
EXTRA = {
    G: lambda args, kwargs, result: _node_evaluations(args, kwargs),
    PUSH: lambda args, kwargs, result: _kept_bytes(result),
}


class Tracer:
    """Collects spans from the wrapped functions, on any thread."""

    def __init__(self):
        self.spans = []
        self.absent = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _wrap(self, name, fn):
        spans, ids, local = self.spans, self._ids, self._local
        extra = EXTRA.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            label = f"{name}.{args[0]}" if name == RUN_SUITE and args else name
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            spans.append((span_id, label, start, end, parent, threading.get_ident(),
                          extra(args, kwargs, result) if extra else 0))
            return result

        return wrapper

    def install(self):
        """Wrap every function of LAYERS in every loaded nmdyn namespace."""
        namespaces = [mod for key, mod in list(sys.modules.items())
                      if key == "nmdyn" or key.startswith("nmdyn.")]
        for module, names in LAYERS.items():
            home = sys.modules.get(f"nmdyn.{module}")
            for fname in names:
                original = getattr(home, fname, None)
                if not callable(original):
                    self.absent.append(f"{module}.{fname}")
                    continue
                wrapper = self._wrap(f"{module}.{fname}", original)
                for ns in namespaces:
                    if getattr(ns, fname, None) is original:
                        setattr(ns, fname, wrapper)


def layer_metrics(spans, import_s):
    """Per-layer metrics from the spans of one traced workload run.

    Returns every ``<module>.<function>.calls`` and ``.self_s``, one
    ``cli.run_suite.<suite>.self_s`` and ``.total_s`` per suite, and the
    derived entries.
    """
    by_id = {s[0]: s for s in spans}
    child_time = {}
    for s in spans:
        if s[4] >= 0:
            child_time[s[4]] = child_time.get(s[4], 0.0) + (s[3] - s[2])
    calls, total, self_s = {}, {}, {}
    for s in spans:
        name = s[1]
        duration = s[3] - s[2]
        calls[name] = calls.get(name, 0) + 1
        total[name] = total.get(name, 0.0) + duration
        self_s[name] = self_s.get(name, 0.0) + duration - child_time.get(s[0], 0.0)

    metrics = {"cli.import_s": import_s}
    for module, names in LAYERS.items():
        for fname in names:
            name = f"{module}.{fname}"
            if name == RUN_SUITE:
                suites = sorted(k for k in calls if k.startswith(RUN_SUITE + "."))
                metrics[name + ".calls"] = sum(calls[k] for k in suites)
                for k in suites:
                    metrics[k + ".self_s"] = self_s[k]
                    metrics[k + ".total_s"] = total[k]
                continue
            metrics[name + ".calls"] = calls.get(name, 0)
            metrics[name + ".self_s"] = self_s.get(name, 0.0)

    def under_step(span):
        while span[4] >= 0:
            span = by_id[span[4]]
            if span[1] in STEPS:
                return True
        return False

    g_spans = [s for s in spans if s[1] == G]
    steps = [s for s in spans if s[1] in STEPS]
    g_calls = len(g_spans)
    metrics[G + ".us_per_call"] = 1e6 * total.get(G, 0.0) / g_calls if g_calls else 0.0
    metrics[G + ".node_evals"] = sum(s[6] for s in g_spans)
    metrics["integrator.steps"] = len(steps)
    metrics["integrator.G_calls_per_step"] = (
        sum(1 for s in g_spans if under_step(s)) / len(steps) if steps else 0.0)

    pushes = [s for s in spans if s[1] == PUSH]
    sample_steps = sum(1 for s in steps
                       if any(p[2] <= s[2] and s[3] <= p[3] for p in pushes))
    push_s = sum(p[3] - p[2] for p in pushes)
    metrics[PUSH + ".sample_steps"] = sample_steps
    metrics[PUSH + ".sample_steps_per_s"] = sample_steps / push_s if push_s else 0.0
    metrics[PUSH + ".kept_bytes"] = sum(p[6] for p in pushes)
    return metrics


def _load_script(path):
    spec = importlib.util.spec_from_file_location("verify_all", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_child(workload_name, scenario_path, out_dir, spans_path):
    """Import nmdyn, install the tracer, run one workload, write the spans."""
    start = time.perf_counter()
    import nmdyn.cli
    import_s = time.perf_counter() - start
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    tracer = Tracer()
    tracer.install()
    words = workload.words(scenario_path, out_dir)
    if workload.script:
        code = _load_script(workload.script).main(words)
    else:
        code = nmdyn.cli.main(words)
    with open(spans_path, "w") as handle:
        json.dump({"import_s": import_s, "absent": tracer.absent,
                   "spans": tracer.spans}, handle)
    return code


if __name__ == "__main__":
    sys.exit(traced_child(*sys.argv[1:5]))
