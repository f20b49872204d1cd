"""Span tracer for one amplab CLI invocation, and the per-layer metrics.

Run as a program, it wraps the public functions of amplab at module
boundaries, calls ``amplab.cli.main`` in-process with the remaining
arguments, and writes every span it recorded to a JSON file when main
returns:

    PYTHONPATH=src python3 benchmark/tracer.py SPANS.json tap --N 1024 ...

A span is [name, start, end, parent, seed, attrs]: ``parent`` is the
index of the enclosing span (or -1), ``seed`` the seed argument of the
nearest enclosing span that had one, and ``attrs`` the counts read off
the call's result.  Matvec counts come from shadowing ``matvec`` on the
operator instances that the builders return, and on their ``.coupling``.

Wrapping changes no argument and no result, so the traced run writes the
same CSV bytes as an untraced one; the benchmark checks that.  A wrapped
name that no longer exists is listed under ``missing`` and the metrics
derived from it read ``None``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import threading
import time

# (module, attribute) pairs replaced by span-recording wrappers.  Each is
# looked up through its module at call time, so replacing the attribute
# intercepts every caller that does not hold its own reference.
WRAPPED = (
    ("cli", "main"),
    ("tap", "ensemble_law"),
    ("tap", "solve_q_star"),
    ("state_evolution", "run_state_evolution"),
    ("tap", "run_tap_amp"),
    ("tap", "build_coupling"),
    ("ensembles", "operator_from_spec"),
    ("tap", "resolvent_operator"),
    ("ensembles", "conjugate_gradient"),
    ("tap", "run_amp"),
    ("amp", "run_amp"),
    ("tap", "tap_residual"),
    ("metrics", "report_from_traces"),
    ("cli", "emit_seed_observables"),
    ("cli", "emit_report"),
)

RUN_AMP = ("tap.run_amp", "amp.run_amp")
BUILDERS = ("tap.build_coupling", "ensembles.operator_from_spec")
EMITTERS = ("cli.emit_report", "cli.emit_seed_observables")
MATVEC_SOURCES = BUILDERS + ("tap.resolvent_operator",)

# Per-layer metric -> (unit, wrapped names it is derived from).  A metric
# reads None when any of its names is missing.
LAYERS = {
    "ensembles.coupling_matvec_s": ("s", MATVEC_SOURCES),
    "ensembles.coupling_matvecs": ("count", MATVEC_SOURCES),
    "tap.residual_s": ("s", ("tap.tap_residual",)),
    "tap.residual_matvecs": ("count", ("tap.tap_residual",) + MATVEC_SOURCES),
    "tap.useful_matvec_ratio": ("ratio", ("tap.tap_residual",) + MATVEC_SOURCES + RUN_AMP),
    "ensembles.resolvent_build_s": ("s", ("tap.resolvent_operator",)),
    "ensembles.cg_iters_per_solve": ("count", ("ensembles.conjugate_gradient",) + MATVEC_SOURCES),
    "tap.ensemble_law_s": ("s", ("tap.ensemble_law",)),
    "tap.solve_q_star_s": ("s", ("tap.solve_q_star",)),
    "tap.q_star_iterations": ("count", ("tap.solve_q_star",)),
    "state_evolution.run_s": ("s", ("state_evolution.run_state_evolution",)),
    "tap.seed_s": ("s", ("tap.run_tap_amp",)),
    "metrics.report_s": ("s", ("metrics.report_from_traces",)),
    "cli.seed_observables_s": ("s", ("cli.emit_seed_observables",)),
    "cli.emit_report_s": ("s", ("cli.emit_report",)),
    "cli.emit_bytes": ("bytes", EMITTERS),
    "amp.run_s": ("s", RUN_AMP),
    "amp.steps": ("count", RUN_AMP),
    "ensembles.op_matvecs": ("count", MATVEC_SOURCES),
    "ensembles.op_matvec_s": ("s", MATVEC_SOURCES),
    "amp.trace_bytes": ("bytes_computed", RUN_AMP),
    "ensembles.build_s": ("s", BUILDERS),
    "ensembles.haar_directions": ("count", RUN_AMP),
    "cli.unattributed_s": ("s", ("cli.main",)),
    "cli.span_coverage": ("ratio", ("cli.main",)),
}


class Tracer:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self):
        self.spans = []
        self.missing = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self):
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def call(self, name, fn, args, kwargs, seed=None, post=None):
        stack = self._stack()
        parent = stack[-1] if stack else -1
        if seed is None and parent >= 0:
            seed = self.spans[parent][4]
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, seed, {}])
        stack.append(index)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[index][1:3] = [start, end]
        if post is not None:
            self.spans[index][5] = post(args, kwargs, result)
        return result

    # -- wrappers --------------------------------------------------------

    def wrap_function(self, name, fn):
        signature = inspect.signature(fn)
        after = functools.partial(self._after, name)

        def wrapper(*args, **kwargs):
            try:
                seed = signature.bind_partial(*args, **kwargs).arguments.get("seed")
            except TypeError:  # a bad call: let fn raise its own error
                seed = None
            return self.call(name, fn, args, kwargs, seed, after)

        return wrapper

    def _after(self, name, args, kwargs, result):
        if name in MATVEC_SOURCES:
            self.shadow_matvec(result, "coupling" if name == "tap.build_coupling" else "op")
            self.shadow_matvec(getattr(result, "coupling", None), "coupling")
        post = _POST.get(name)
        if post is None:
            return {}
        try:
            return post(args, kwargs, result)
        except (AttributeError, TypeError, KeyError, IndexError, OSError):
            return {}

    def shadow_matvec(self, op, kind):
        if op is None or "matvec" in vars(op):
            return
        original = op.matvec
        name = f"{kind}.matvec"
        op.matvec = lambda *args, **kwargs: self.call(name, original, args, kwargs)

    def install(self, package):
        for module_name, attr in WRAPPED:
            name = f"{module_name}.{attr}"
            try:
                module = importlib.import_module(f"{package}.{module_name}")
                wrapper = self.wrap_function(name, getattr(module, attr))
            except (ImportError, AttributeError, TypeError, ValueError):
                self.missing.append(name)  # gone, or no longer a function
                continue
            setattr(module, attr, wrapper)

    def dump(self, path, exit_code):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "missing": self.missing,
                       "exit": exit_code}, fh)


def _run_amp_counts(args, kwargs, trace):
    op = args[0] if args else kwargs["op"]
    directions = 0
    for candidate in (op, getattr(op, "coupling", None)):
        basis = getattr(candidate, "haar_basis", None)
        if basis is not None:
            directions = max(directions, int(basis.q.shape[0]))
    return {"steps": int(trace.T),
            "trace_bytes": int(sum(z.nbytes for z in trace.iterates)),
            "haar_directions": directions}


def _emitted_bytes(args, kwargs, result):
    path = kwargs["path"] if "path" in kwargs else args[-1]
    return {"bytes": os.path.getsize(path)}


_POST = {
    "tap.solve_q_star": lambda a, k, params: {"iterations": int(params.iterations)},
    "tap.run_amp": _run_amp_counts,
    "amp.run_amp": _run_amp_counts,
    "cli.emit_report": _emitted_bytes,
    "cli.emit_seed_observables": _emitted_bytes,
}


# ---------------------------------------------------------------------------
# per-layer metrics from a span file
# ---------------------------------------------------------------------------

def layer_metrics(record: dict) -> dict:
    """Per-layer metrics of one traced invocation (see ``LAYERS``)."""
    spans = record["spans"]
    missing = set(record["missing"])

    def durations(*names):
        return [s[2] - s[1] for s in spans if s[0] in names]

    def total(*names):
        return float(sum(durations(*names)))

    def attr_values(key, *names):
        return [s[5].get(key, 0) for s in spans if s[0] in names]

    def matvecs(kind, parent=None):
        return [s for s in spans if s[0] == f"{kind}.matvec"
                and (parent is None
                     or (s[3] >= 0 and spans[s[3]][0] == parent))]

    def mean_time(group):
        return sum(s[2] - s[1] for s in group) / len(group) if group else 0.0

    coupling = matvecs("coupling")
    op = matvecs("op")
    residual_matvecs = len(matvecs("coupling", "tap.tap_residual"))
    cg_solves = len(durations("ensembles.conjugate_gradient"))
    cg_iters = len(matvecs("coupling", "ensembles.conjugate_gradient"))
    steps = int(sum(attr_values("steps", *RUN_AMP)))
    mains = [i for i, s in enumerate(spans) if s[0] == "cli.main"]
    main_s = sum(spans[i][2] - spans[i][1] for i in mains)
    covered = sum(s[2] - s[1] for s in spans if s[3] in mains)
    unattributed = main_s - covered

    values = {
        "ensembles.coupling_matvec_s": mean_time(coupling),
        "ensembles.coupling_matvecs": len(coupling),
        "tap.residual_s": total("tap.tap_residual"),
        "tap.residual_matvecs": residual_matvecs,
        "tap.useful_matvec_ratio": (steps / (steps + residual_matvecs)
                                    if steps else None),
        "ensembles.resolvent_build_s": total("tap.resolvent_operator"),
        "ensembles.cg_iters_per_solve": cg_iters / cg_solves if cg_solves else 0.0,
        "tap.ensemble_law_s": total("tap.ensemble_law"),
        "tap.solve_q_star_s": total("tap.solve_q_star"),
        "tap.q_star_iterations": int(sum(attr_values("iterations", "tap.solve_q_star"))),
        "state_evolution.run_s": total("state_evolution.run_state_evolution"),
        "tap.seed_s": total("tap.run_tap_amp"),
        "metrics.report_s": total("metrics.report_from_traces"),
        "cli.seed_observables_s": total("cli.emit_seed_observables"),
        "cli.emit_report_s": total("cli.emit_report"),
        "cli.emit_bytes": int(sum(attr_values("bytes", *EMITTERS))),
        "amp.run_s": total(*RUN_AMP),
        "amp.steps": steps,
        "ensembles.op_matvecs": len(op),
        "ensembles.op_matvec_s": mean_time(op),
        "amp.trace_bytes": int(sum(attr_values("trace_bytes", *RUN_AMP))),
        "ensembles.build_s": total(*BUILDERS),
        "ensembles.haar_directions": int(max(attr_values("haar_directions", *RUN_AMP),
                                             default=0)),
        "cli.unattributed_s": unattributed if mains else None,
        "cli.span_coverage": 1.0 - unattributed / main_s if main_s else None,
    }
    for metric, (_, sources) in LAYERS.items():
        if missing.intersection(sources):
            values[metric] = None
    return values


def main(argv) -> int:
    if len(argv) < 2:
        print("usage: tracer.py SPANS.json <amplab arguments>", file=sys.stderr)
        return 2
    tracer = Tracer()
    tracer.install("amplab")
    code = 1
    try:
        cli = importlib.import_module("amplab.cli")
        code = cli.main(argv[1:])
    finally:
        tracer.dump(argv[0], code)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
