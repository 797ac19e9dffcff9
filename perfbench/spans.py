"""Spans and counters around the package's public functions (traced runs only).

:func:`install` swaps each traced function for a wrapper everywhere a caller
looks it up: the defining module, every ``levitan`` module that imported it
by name, the pipeline's stage table and, for methods, the class.  Spans
``(name, start, end, parent, op)`` are kept in memory and written out when the
run ends; per-layer metrics are derived from them afterwards.  Untraced runs
never call :func:`install`, so they record nothing.

Only spans inside a timed operation feed the per-call metrics: the set-up's
warm-up calls and the checks' own calls into the program are left out.  The
one exception is :data:`SETUP_SPANS`, which fall back to the set-up's calls
in workloads that make none in their timed phase.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
import tracemalloc
import weakref
from contextlib import contextmanager
from pathlib import Path

import numpy as np

# span name -> per-layer metric; each is a median over calls of the span's
# duration in ms (the "_self" entries use the duration minus child spans)
DURATION_METRICS = {
    "cli.emit_plots": "cli.emit_plots_ms",
    "dubrovin.integrate": "dubrovin.integrate_ms",
    "dubrovin.touch_search": "dubrovin.touch_search_ms",
    "dubrovin.trace_potential": "dubrovin.trace_potential_ms",
    "dubrovin.to_csv": "dubrovin.to_csv_ms",
    "weyl.psi_product": "weyl.psi_product_ms",
    "weyl.psi_ode": "weyl.psi_ode_ms",
    "weyl.eval_m": "weyl.eval_m_ms",
    "weyl.green": "weyl.green_ms",
    "weyl.probe_csv": "weyl.probe_csv_ms",
    "weyl.wronskian": "weyl.wronskian_ms",
    "weyl.classify_poles": "weyl.classify_poles_ms",
    "weyl.structural_identity": "weyl.structural_identity_ms",
    "weyl.psi_on_grid": "weyl.psi_on_grid_ms",
    "kernel.edge_amplitudes": "kernel.edge_amplitudes_ms",
    "kernel.bound_check": "kernel.bound_check_ms",
    "kernel.eval_D": "kernel.eval_D_ms",
    "kernel.jost_kernel": "kernel.jost_kernel_ms",
    "kernel.jost_profile": "kernel.jost_profile_ms",
    "kernel.jost_direct": "kernel.jost_direct_ms",
}
# spans that stand for set-up work in workloads that only call them there
SETUP_SPANS = ("dubrovin.integrate", "dubrovin.touch_search")
# span -> per-layer metric: a median over operations of the summed duration
# of the span's calls in each; the first call per context does the phase
# work that the per-call median, mostly cache hits, never sees
PER_OP_METRICS = {
    "kernel.edge_amplitudes": "kernel.edge_amplitudes_per_op_ms",
}
SELF_METRICS = {
    "op.pipeline": "cli.self_ms",
    "kernel.solve": "kernel.solve_self_ms",
}
# counter -> per-layer metric; a mean over the operations that count any,
# which repeats exactly because every run is whole rounds of the same
# operations
COUNT_METRICS = {
    "cli.artifact_bytes": "cli.artifact_bytes",
    "dubrovin.integrate_calls": "dubrovin.integrate_calls",
    "dubrovin.spline_calls": "dubrovin.spline_calls",
    "dubrovin.spline_points": "dubrovin.spline_points",
    "kernel.edge_amplitudes_calls": "kernel.edge_amplitudes_calls",
    "kernel.solve_sweeps": "kernel.solve_sweeps",
    "kernel.eval_D_calls": "kernel.eval_D_calls",
    "kernel.jost_direct_sweeps": "kernel.jost_direct_sweeps",
}
# a fixed copy of levitan.cli.STAGES: the metric names are part of
# BENCHMARK.json and must not move when the program's stage table does
STAGES = ("validate", "flow", "potential", "weyl", "kernel", "jost", "verify")


def metric_units() -> dict:
    """Every per-layer metric name and its unit."""
    units = {"cli.stage_ms." + s: "ms" for s in STAGES}
    units.update({m: "ms" for m in DURATION_METRICS.values()})
    units.update({m: "ms" for m in SELF_METRICS.values()})
    units.update({m: "ms" for m in PER_OP_METRICS.values()})
    units.update({m: ("bytes" if m.endswith("bytes") else "count")
                  for m in COUNT_METRICS.values()})
    units["kernel.solve_peak_mb"] = "MB"
    return units


class Tracer:
    """In-memory span and counter store for one traced run."""

    def __init__(self):
        self.spans = []          # [name, start, end, parent, op]
        self.samples = {}        # name -> list of per-call values
        self.op_counts = []      # one dict of counters per operation
        self.setup_spans = 0     # spans recorded before the timed phase
        self.profiled_ops = set()
        self._profiled_kinds = set()
        self._stack = []
        self._op = None
        self._kind = None
        self._counts = None
        self._seen = {}
        self.spline_depth = 0

    @contextmanager
    def operation(self, op_id: int, name: str, kind: str):
        """Root span of one timed operation; counters attach to it."""
        self._op, self._kind, self._counts = op_id, kind, {}
        try:
            with self.span(name):
                yield
        finally:
            self.op_counts.append(self._counts)
            self._op, self._kind, self._counts = None, None, None

    def end_setup(self) -> None:
        self.setup_spans = len(self.spans)

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self._op]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def count(self, counter: str, n: int = 1) -> None:
        if self._counts is not None:
            self._counts[counter] = self._counts.get(counter, 0) + int(n)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(float(value))

    def inside(self, name: str) -> bool:
        return any(self.spans[i][0] == name for i in self._stack)

    def claim_profile(self) -> bool:
        """True once per operation kind, inside an operation.  Profiling
        slows that operation, so it is left out of the timing metrics."""
        if self._op is None or self._kind in self._profiled_kinds:
            return False
        self._profiled_kinds.add(self._kind)
        self.profiled_ops.add(self._op)
        return True

    def first_time(self, obj) -> bool:
        """True on the first call for this live object."""
        ref = self._seen.get(id(obj))
        if ref is not None and ref() is obj:
            return False
        self._seen[id(obj)] = weakref.ref(obj)
        return True

    # -- derived metrics ----------------------------------------------------

    def self_times(self) -> list:
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [(s[2] - s[1]) - c for s, c in zip(self.spans, child)]

    def metrics(self, scale: dict, setup_scale: float) -> dict:
        """Per-layer metrics.  ``scale`` maps the id of each completed
        operation to the factor that puts its times on the run's reference
        clock; set-up spans take ``setup_scale``."""
        units = metric_units()
        per_call, setup_calls, per_op = {}, {}, {}
        selfs = self.self_times()
        for i, ((name, start, end, _, op), own) in enumerate(
                zip(self.spans, selfs)):
            if op is None and i < self.setup_spans and name in SETUP_SPANS:
                setup_calls.setdefault(DURATION_METRICS[name], []).append(
                    1e3 * setup_scale * (end - start))
            if op not in scale or op in self.profiled_ops:
                continue
            ms = 1e3 * scale[op]
            if name in PER_OP_METRICS:
                key = (PER_OP_METRICS[name], op)
                per_op[key] = per_op.get(key, 0.0) + ms * (end - start)
            if name.startswith("cli.stage."):
                key = "cli.stage_ms." + name[len("cli.stage."):]
                per_call.setdefault(key, []).append(ms * (end - start))
            if name in DURATION_METRICS:
                per_call.setdefault(DURATION_METRICS[name], []).append(
                    ms * (end - start))
            if name in SELF_METRICS:
                per_call.setdefault(SELF_METRICS[name], []).append(ms * own)
        for metric, calls in setup_calls.items():
            per_call.setdefault(metric, calls)
        for (metric, _), total in per_op.items():
            per_call.setdefault(metric, []).append(total)
        per_call["kernel.solve_peak_mb"] = self.samples.get(
            "kernel.solve_peak_mb", [])
        values = {name: statistics.median(v)
                  for name, v in per_call.items() if v}
        for counter, metric in COUNT_METRICS.items():
            counts = [c[counter] for c in self.op_counts if c.get(counter)]
            if counts:
                values[metric] = statistics.fmean(counts)
        return {name: {"value": values.get(name, 0.0), "unit": unit}
                for name, unit in sorted(units.items())}

    def write(self, path: Path) -> None:
        with open(path, "w") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _spanned(tr: Tracer, name: str, fn, counter: str | None = None):
    def wrapper(*args, **kwargs):
        if counter:
            tr.count(counter)
        with tr.span(name):
            return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def _solve(tr: Tracer, fn):
    # the peak is the same for every solve of a kind: trace memory in the
    # first one only, since tracemalloc slows everything inside it
    def wrapper(*args, **kwargs):
        peak = not tracemalloc.is_tracing() and tr.claim_profile()
        if peak:
            tracemalloc.start()
        try:
            with tr.span("kernel.solve"):
                grid = fn(*args, **kwargs)
            if peak:
                tr.sample("kernel.solve_peak_mb",
                          tracemalloc.get_traced_memory()[1] / 1e6)
        finally:
            if peak:
                tracemalloc.stop()
        tr.count("kernel.solve_sweeps", grid.iterations)
        return grid
    wrapper.__wrapped__ = fn
    return wrapper


def _jost_direct(tr: Tracer, fn):
    # diagnostics=True returns the sweep deltas alongside the value; the
    # wrapper hands the caller what it asked for
    def wrapper(*args, diagnostics=False, **kwargs):
        with tr.span("kernel.jost_direct"):
            val, deltas = fn(*args, diagnostics=True, **kwargs)
        tr.count("kernel.jost_direct_sweeps", len(deltas))
        return (val, deltas) if diagnostics else val
    wrapper.__wrapped__ = fn
    return wrapper


def _touch(tr: Tracer, fn):
    # only the first touch query on a trajectory searches; later ones read
    # the trajectory's own cache
    def wrapper(self, *args, **kwargs):
        if tr.inside("dubrovin.touch_search") or not tr.first_time(self):
            return fn(self, *args, **kwargs)
        with tr.span("dubrovin.touch_search"):
            return fn(self, *args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


def _spline(tr: Tracer, fn):
    # mu_at evaluates through theta_at: count the outermost call only
    def wrapper(self, x, *args, **kwargs):
        if tr.spline_depth == 0:
            tr.count("dubrovin.spline_calls")
            tr.count("dubrovin.spline_points", np.size(x))
        tr.spline_depth += 1
        try:
            return fn(self, x, *args, **kwargs)
        finally:
            tr.spline_depth -= 1
    wrapper.__wrapped__ = fn
    return wrapper


_FUNCTIONS = (
    ("levitan.dubrovin", "integrate_dubrovin",
     lambda tr, f: _spanned(tr, "dubrovin.integrate", f,
                            "dubrovin.integrate_calls")),
    ("levitan.dubrovin", "trace_potential",
     lambda tr, f: _spanned(tr, "dubrovin.trace_potential", f)),
    ("levitan.dubrovin", "trajectory_to_csv",
     lambda tr, f: _spanned(tr, "dubrovin.to_csv", f)),
    ("levitan.weyl", "eval_psi_product",
     lambda tr, f: _spanned(tr, "weyl.psi_product", f)),
    ("levitan.weyl", "eval_psi_ode",
     lambda tr, f: _spanned(tr, "weyl.psi_ode", f)),
    ("levitan.weyl", "eval_m", lambda tr, f: _spanned(tr, "weyl.eval_m", f)),
    ("levitan.weyl", "eval_green", lambda tr, f: _spanned(tr, "weyl.green", f)),
    ("levitan.weyl", "probe_csv",
     lambda tr, f: _spanned(tr, "weyl.probe_csv", f)),
    ("levitan.weyl", "wronskian_check",
     lambda tr, f: _spanned(tr, "weyl.wronskian", f)),
    ("levitan.weyl", "classify_poles",
     lambda tr, f: _spanned(tr, "weyl.classify_poles", f)),
    ("levitan.weyl", "structural_identity_check",
     lambda tr, f: _spanned(tr, "weyl.structural_identity", f)),
    ("levitan.weyl", "psi_on_grid",
     lambda tr, f: _spanned(tr, "weyl.psi_on_grid", f)),
    ("levitan.kernel", "edge_amplitudes",
     lambda tr, f: _spanned(tr, "kernel.edge_amplitudes", f,
                            "kernel.edge_amplitudes_calls")),
    ("levitan.kernel", "solve_kernel", _solve),
    ("levitan.kernel", "kernel_bound_check",
     lambda tr, f: _spanned(tr, "kernel.bound_check", f)),
    ("levitan.kernel", "eval_D",
     lambda tr, f: _spanned(tr, "kernel.eval_D", f, "kernel.eval_D_calls")),
    ("levitan.kernel", "jost_from_kernel",
     lambda tr, f: _spanned(tr, "kernel.jost_kernel", f)),
    ("levitan.kernel", "jost_profile",
     lambda tr, f: _spanned(tr, "kernel.jost_profile", f)),
    ("levitan.kernel", "jost_direct", _jost_direct),
    ("levitan.cli", "emit_plots",
     lambda tr, f: _spanned(tr, "cli.emit_plots", f)),
)
_METHODS = (
    ("flip_points", _touch),
    ("touch_points", _touch),
    ("mu_at", _spline),
    ("theta_at", _spline),
)


@contextmanager
def install(tr: Tracer):
    """Patch every traced function for the duration of the block."""
    from levitan import cli
    from levitan.dubrovin import DivisorTrajectory

    undo = []
    modules = [m for n, m in list(sys.modules.items())
               if n == "levitan" or n.startswith("levitan.")]
    for mod_name, attr, make in _FUNCTIONS:
        orig = getattr(sys.modules[mod_name], attr)
        wrapped = make(tr, orig)
        for mod in modules:
            if getattr(mod, attr, None) is orig:
                undo.append((mod, attr, orig))
                setattr(mod, attr, wrapped)
    for attr, make in _METHODS:
        orig = DivisorTrajectory.__dict__[attr]
        undo.append((DivisorTrajectory, attr, orig))
        setattr(DivisorTrajectory, attr, make(tr, orig))
    stages = dict(cli._STAGE_FNS)
    for name, fn in stages.items():
        cli._STAGE_FNS[name] = _spanned(tr, "cli.stage." + name, fn)
    try:
        yield tr
    finally:
        cli._STAGE_FNS.update(stages)
        for owner, attr, orig in reversed(undo):
            setattr(owner, attr, orig)
