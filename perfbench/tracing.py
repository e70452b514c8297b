"""Span tracing of matbody from outside the package.

Hooks wrap public functions of the package at their layer boundaries. A
wrapped function is replaced in its defining module and in every other
``matbody`` module that imported the same object by name, so calls made
through ``from .bodies import evaluate`` are seen too. A hook whose target
no longer exists is listed as missing instead of failing, so refactors that
rename or remove a function leave the benchmark running.

Spans are kept in memory as (id, parent id, name, start ns, end ns). Self
time of a span is its duration minus the durations of its direct children;
the benchmark runs single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import Counter, defaultdict

# (module, attribute path, name, kind). Kind "span" records a span of that
# name; "count" only counts calls under the name; "svd" counts calls under
# "<layer>.svd_calls" for the layer of the innermost open span.
HOOKS = (
    ("matbody.bodies", "evaluate", "bodies.evaluate", "span"),
    ("matbody.bodies", "membership_defect", "bodies.membership_defect", "span"),
    ("matbody.algebroid", "fiber", "algebroid.fiber", "span"),
    ("matbody.algebroid", "anchor_rank", "algebroid.anchor_rank", "span"),
    ("matbody.algebroid", "isotropy_algebra", "algebroid.isotropy_algebra", "span"),
    ("matbody.algebroid", "uniformity_verdict", "algebroid.uniformity_verdict", "span"),
    ("matbody.connection", "minimal_lift_section", "connection.lift", "span"),
    ("matbody.connection", "curvature_torsion", "connection.curvature_torsion", "span"),
    ("matbody.connection", "homogeneity_verdict", "connection.verdict", "span"),
    ("matbody.connection", "build_homogeneous_chart", "connection.chart", "span"),
    ("matbody.connection", "transport_frame", "connection.transport", "count"),
    ("matbody.connection", "chart_christoffels", "connection.chart_christoffels", "span"),
    ("matbody.grid", "TrilinearField.__call__", "grid.interp", "span"),
    ("matbody.grid", "grid_gradient", "grid.gradient", "span"),
    ("matbody.flows", "_rk4_step", "flows.rk4_step", "count"),
    ("matbody.flows", "exp_trajectory", "flows.trajectory", "span"),
    ("matbody.flows", "exp_section", "flows.trajectory", "span"),
    ("matbody.gstructure", "isotropy_group_sample", "gstructure.isotropy_sample", "span"),
    ("matbody.gstructure", "invert_g_map", "gstructure.bridge", "span"),
    ("matbody.gstructure", "frame_bracket_defect", "gstructure.bridge", "span"),
    ("matbody.jets", "Jet1.__post_init__", "jets.jet", "span"),
    ("matbody.jets", "Frame.__post_init__", "jets.jet", "span"),
    ("matbody.jets", "identity", "jets.jet", "span"),
    ("matbody.jets", "compose", "jets.jet", "span"),
    ("matbody.jets", "invert", "jets.jet", "span"),
    ("matbody.analysis", "run_analysis", "analysis.run_analysis", "span"),
    ("matbody.analysis", "emit_report", "analysis.emit", "span"),
    ("numpy.linalg", "svd", "svd", "svd"),
)

# Matbody modules whose cumulative import time is reported as <name>.import_s.
IMPORT_MODULES = ("matbody", "matbody.errors", "matbody.jets", "matbody.bodies",
                  "matbody.algebroid", "matbody.grid", "matbody.connection",
                  "matbody.flows", "matbody.analysis", "matbody.gstructure")

# Per-layer metrics with their units, in the order BENCHMARK.json lists them.
LAYER_METRICS = (
    ("bodies.evaluations", "count"),
    ("bodies.evaluate_s", "s"),
    ("bodies.ns_per_evaluation", "ns"),
    ("bodies.membership_defect_calls", "count"),
    ("bodies.membership_defect_s", "s"),
    ("algebroid.fiber_calls", "count"),
    ("algebroid.fiber_s", "s"),
    ("algebroid.svd_calls", "count"),
    ("algebroid.anchor_isotropy_s", "s"),
    ("connection.lift_s", "s"),
    ("connection.curvature_torsion_s", "s"),
    ("connection.verdict_s", "s"),
    ("connection.chart_s", "s"),
    ("connection.transport_calls", "count"),
    ("connection.chart_christoffels_s", "s"),
    ("grid.interp_calls", "count"),
    ("grid.interp_s", "s"),
    ("grid.gradient_s", "s"),
    ("flows.rk4_steps", "count"),
    ("flows.trajectory_s", "s"),
    ("gstructure.isotropy_sample_s", "s"),
    ("gstructure.bridge_s", "s"),
    ("jets.self_s", "s"),
    ("analysis.run_analysis_self_s", "s"),
    ("analysis.emit_s", "s"),
    ("analysis.report_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
) + tuple((m.split(".")[-1] + ".import_s", "s") for m in IMPORT_MODULES)

# Layer metric -> span names whose self times it sums.
_SELF_TIME = {
    "bodies.evaluate_s": ("bodies.evaluate",),
    "bodies.membership_defect_s": ("bodies.membership_defect",),
    "algebroid.fiber_s": ("algebroid.fiber",),
    "algebroid.anchor_isotropy_s": ("algebroid.anchor_rank", "algebroid.isotropy_algebra",
                                    "algebroid.uniformity_verdict"),
    "connection.lift_s": ("connection.lift",),
    "connection.curvature_torsion_s": ("connection.curvature_torsion",),
    "connection.verdict_s": ("connection.verdict",),
    "connection.chart_s": ("connection.chart",),
    "connection.chart_christoffels_s": ("connection.chart_christoffels",),
    "grid.interp_s": ("grid.interp",),
    "grid.gradient_s": ("grid.gradient",),
    "flows.trajectory_s": ("flows.trajectory",),
    "gstructure.isotropy_sample_s": ("gstructure.isotropy_sample",),
    "gstructure.bridge_s": ("gstructure.bridge",),
    "jets.self_s": ("jets.jet",),
    "analysis.run_analysis_self_s": ("analysis.run_analysis",),
    "analysis.emit_s": ("analysis.emit",),
}

# Layer metric -> number of spans of that name.
_SPAN_COUNTS = {
    "bodies.membership_defect_calls": "bodies.membership_defect",
    "algebroid.fiber_calls": "algebroid.fiber",
    "grid.interp_calls": "grid.interp",
}

# Layer metric -> counter.
_COUNTERS = {
    "bodies.evaluations": "bodies.evaluations",
    "algebroid.svd_calls": "algebroid.svd_calls",
    "connection.transport_calls": "connection.transport",
    "flows.rk4_steps": "flows.rk4_step",
    "analysis.report_bytes": "analysis.report_bytes",
}


def evaluation_pairs(args, kwargs, _result) -> int:
    """Number of (F, x) pairs in one evaluate(body, F, x) call, from the shapes.

    F is (..., 3, 3) and x is (..., 3); their leading dimensions broadcast.
    Counting from shapes keeps the figure comparable when the response
    contract is batched.
    """
    import numpy as np

    F = args[1] if len(args) > 1 else kwargs["F"]
    x = args[2] if len(args) > 2 else kwargs["x"]
    return math.prod(np.broadcast_shapes(np.shape(F)[:-2], np.shape(x)[:-1]))


def report_bytes(_args, _kwargs, result) -> int:
    return len(result)


# Span name -> (counter, function of (args, kwargs, result) giving the increment).
SPAN_COUNTERS = {
    "bodies.evaluate": ("bodies.evaluations", evaluation_pairs),
    "analysis.emit": ("analysis.report_bytes", report_bytes),
}


class Tracer:
    """In-memory span recorder for one thread."""

    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans = []          # closed spans: (sid, parent, name, start, end)
        self.counts = Counter()  # counter name -> total
        self._stack = []         # open spans: (sid, name)
        self._next_id = 0

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span named ``name``.

        A span name listed in SPAN_COUNTERS also adds to its counter per call.
        """
        tracer = self
        counter, increment = SPAN_COUNTERS.get(name, (None, None))

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer._stack.append((sid, name))
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                tracer._stack.pop()
                tracer.spans.append((sid, parent, name, start, end))
            if counter is not None:
                tracer.counts[counter] += increment(args, kwargs, result)
            return result

        return wrapped

    def counting(self, name: str, fn):
        """Return fn wrapped to count calls under ``name`` without a span."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def svd_counting(self, fn):
        """Return fn wrapped to count calls per layer of the innermost open span."""
        tracer = self

        @functools.wraps(fn)
        def wrapped(*args, **kwargs):
            layer = tracer._stack[-1][1].split(".")[0] if tracer._stack else "none"
            tracer.counts[layer + ".svd_calls"] += 1
            return fn(*args, **kwargs)

        return wrapped

    def drain(self) -> tuple:
        """Hand over and forget the closed spans and counters recorded so far."""
        spans, counts = self.spans, self.counts
        self.spans, self.counts = [], Counter()
        return spans, counts


def self_times(spans) -> dict:
    """Aggregate closed spans by name: {name: (calls, total ns, self ns)}."""
    child_ns = defaultdict(int)
    for _sid, parent, _name, start, end in spans:
        if parent is not None:
            child_ns[parent] += end - start
    out = {}
    for sid, _parent, name, start, end in spans:
        calls, total, own = out.get(name, (0, 0, 0))
        dur = end - start
        out[name] = (calls + 1, total + dur, own + dur - child_ns[sid])
    return out


def layer_metrics(spans, counts) -> dict:
    """Per-layer metric values (seconds, counts) for one traced operation."""
    agg = self_times(spans)
    out = {}
    for metric, names in _SELF_TIME.items():
        out[metric] = sum(agg.get(n, (0, 0, 0))[2] for n in names) * 1e-9
    for metric, name in _SPAN_COUNTS.items():
        out[metric] = agg.get(name, (0, 0, 0))[0]
    for metric, key in _COUNTERS.items():
        out[metric] = counts.get(key, 0)
    return out


def _resolve(module_name: str, path: str):
    """(owner object, attribute name, current value), or None when missing."""
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, parts[-1], None)
    if value is None:
        return None
    return owner, parts[-1], value


class Hooks:
    """Installs the tracer's wrappers into the package and restores the originals."""

    def __init__(self, tracer: Tracer, hooks=HOOKS):
        self.tracer = tracer
        self.hooks = hooks
        self.missing = []
        self._saved = []         # (owner, attribute, original)

    def install(self) -> "Hooks":
        for module_name, path, name, kind in self.hooks:
            found = _resolve(module_name, path)
            if found is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            owner, attr, original = found
            if kind == "svd":
                wrapped = self.tracer.svd_counting(original)
            elif kind == "count":
                wrapped = self.tracer.counting(name, original)
            else:
                wrapped = self.tracer.wrap(name, original)
            self._replace(owner, attr, original, wrapped)
        return self

    def _replace(self, owner, attr, original, wrapped) -> None:
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type) or not getattr(owner, "__name__", "").startswith("matbody"):
            return
        # Also rebind every by-name import of the same object in the package.
        for mod_name, mod in list(sys.modules.items()):
            if mod is owner or not (mod_name == "matbody" or mod_name.startswith("matbody.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._saved.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds per matbody module from ``python -X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3:
            continue
        module = fields[2].strip()
        if module in IMPORT_MODULES:
            try:
                out[module.split(".")[-1] + ".import_s"] = int(fields[1]) * 1e-6
            except ValueError:
                continue
    return out
