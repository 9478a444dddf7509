"""Span recorder for the traced benchmark run, and the per-layer metrics.

`Recorder` wraps the public functions of each mlstab layer at every module
attribute that names them (including `from ... import` aliases such as
`mlstab.tables.solve` or `mlstab.resolvent.mittag_leffler`), records one span
per call in memory and restores the originals on exit.  Nothing under `src/`
changes.

A span is (id, name, layer, start, end, parent, thread, info).  The parent is
the innermost open span on the same thread; a span opened on a thread with no
open span (a `tables` pool worker) takes the innermost open span of the thread
that installed the recorder as its parent.

Self time is thread-aware: at every instant the spans that are open and have
no open child are "running", and the instant is shared evenly among them.  On
one thread this is a span's duration minus the union of its children; with
several threads the self times of all spans add up to the wall time the spans
cover, so they can be compared with the traced pass's wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

#: the layers whose public functions are wrapped, by mlstab module name.
LAYERS = ("weights", "solver", "special", "resolvent", "analysis", "tables", "cli", "problems")

_BUILDERS = {"weights." + n for n in (
    "scheme_weights", "fbdf_weights", "fadams2_weights", "l1_weights", "alpha_diff_weights")}
_RUNS = {"solver." + n for n in (
    "solve", "solve_flmm", "solve_differential", "solve_l1", "solve_alpha_diff")}
_REGION = {"analysis." + n for n in ("region_boundary", "boundary_point", "f_omega_closed")}
_P_INDEX = {"analysis.p_index", "analysis.p_at_checkpoints"}
_F = "problems.f"


def _run_info(traj):
    return (traj.n_steps, traj.truncated_at is not None)


#: what a span keeps of its function's result, by span name.
_INFO = {
    **{name: (lambda w: w.n_terms) for name in _BUILDERS},
    **{name: _run_info for name in _RUNS},
    "analysis.region_boundary": lambda s: len(s.theta),
    "resolvent.impulse_resolvent": lambda r: 2 * r.n_max + 1,  # two matrix runs
    "tables.reproduce": len,
}


class Metric(NamedTuple):
    name: str
    unit: str
    better: str
    moves: str  # the end-to-end metric and workload it should move


#: the per-layer metrics of a traced run; BENCHMARK.json lists the same names.
PER_LAYER = (
    Metric("weights.build_s", "s", "lower", "wall_s on solve_long mostly, paper_grids somewhat"),
    Metric("weights.builds", "count", "lower", "wall_s on solve_long and paper_grids"),
    Metric("weights.terms", "count", "lower", "wall_s on solve_long and paper_grids"),
    Metric("weights.conv_inverse_s", "s", "lower", "wall_s on solve_long mostly"),
    Metric("solver.self_s", "s", "lower", "wall_s on solve_long and paper_grids"),
    Metric("solver.runs", "count", "lower", "wall_s on solve_long and paper_grids"),
    Metric("solver.steps", "count", "lower", "wall_s on solve_long and paper_grids"),
    Metric("solver.truncations", "count", "lower", "fail_ratio on every workload"),
    Metric("solver.f_calls", "count", "lower", "wall_s on paper_grids"),
    Metric("solver.f_s", "s", "lower", "wall_s on paper_grids"),
    Metric("solver.f_calls_per_step", "calls/step", "lower", "wall_s on paper_grids"),
    Metric("special.ml_calls", "count", "lower", "wall_s on diagnostics"),
    Metric("special.ml_s", "s", "lower", "wall_s on diagnostics"),
    Metric("resolvent.impulse_s", "s", "lower", "wall_s on diagnostics"),
    Metric("resolvent.impulse_steps", "count", "lower", "wall_s on diagnostics"),
    Metric("resolvent.poisson_s", "s", "lower", "wall_s on diagnostics"),
    Metric("resolvent.poisson_calls", "count", "lower", "wall_s on diagnostics"),
    Metric("analysis.region_s", "s", "lower", "wall_s on diagnostics"),
    Metric("analysis.region_points", "count", "lower", "wall_s on diagnostics"),
    Metric("analysis.perturbation_s", "s", "lower", "wall_s on diagnostics"),
    Metric("analysis.p_index_s", "s", "lower", "wall_s on solve_long"),
    Metric("tables.self_s", "s", "lower", "wall_s and cpu_s on paper_grids"),
    Metric("tables.cells", "count", "lower", "wall_s on paper_grids"),
    Metric("tables.busy_ratio", "ratio", "higher", "wall_s and cpu_s on paper_grids"),
    Metric("cli.self_s", "s", "lower", "wall_s on solve_long"),
    Metric("cli.bytes_out", "bytes", "lower", "wall_s on solve_long"),
    Metric("trace.overhead", "ratio", "lower", "traced over untraced wall_s, every workload"),
    Metric("trace.accounted", "ratio", "higher", "layer self times over traced wall_s"),
)


class Span(NamedTuple):
    id: int
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    thread: int
    info: object = None


def public_functions(module) -> list:
    """Functions defined in `module` whose names do not start with '_'."""
    return [obj for name, obj in vars(module).items()
            if not name.startswith("_") and inspect.isfunction(obj)
            and obj.__module__ == module.__name__]


class Recorder:
    """Context manager that traces mlstab's layers while it is entered."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)  # next() on a C iterator is atomic under the GIL
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self) -> tuple[list[int], int, int | None]:
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            owner = self._owner_stack
            parent = owner[-1] if owner else None
        sid = next(self._ids)
        stack.append(sid)
        return stack, sid, parent

    def wrap(self, fn, name: str, layer: str):
        info_of = _INFO.get(name)
        builds_problem = layer == "problems" and name != _F
        clock = time.perf_counter
        get_ident = threading.get_ident

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, sid, parent = self._open()
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                info = info_of(result) if info_of is not None and result is not None else None
                self.spans.append(Span(sid, name, layer, start, end, parent, get_ident(), info))
            if builds_problem and getattr(result, "f", None) is not None \
                    and not hasattr(result.f, "__wrapped__"):
                result.f = self.wrap(result.f, _F, layer)  # count f calls
            return result

        return traced

    def __enter__(self):
        self._local.stack = self._owner_stack
        originals = {}
        for layer in LAYERS:
            module = importlib.import_module(f"mlstab.{layer}")
            for fn in public_functions(module):
                originals[id(fn)] = self.wrap(fn, f"{layer}.{fn.__name__}", layer)
        for modname, module in list(sys.modules.items()):
            if modname != "mlstab" and not modname.startswith("mlstab."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()
        return False


def self_times(spans) -> dict[int, float]:
    """Thread-aware self time of every span, by span id (see module doc)."""
    parent = {s.id: s.parent for s in spans}
    events = sorted([(s.start, 1, s.id) for s in spans] + [(s.end, 0, s.id) for s in spans])
    open_ids: set[int] = set()
    open_children: dict[int, int] = defaultdict(int)
    running: set[int] = set()
    out = dict.fromkeys(parent, 0.0)
    last = None
    for t, opening, sid in events:  # at equal times closes sort before opens
        if running and t > last:
            share = (t - last) / len(running)
            for r in running:
                out[r] += share
        last = t
        p = parent[sid]
        if opening:
            open_ids.add(sid)
            running.add(sid)
            if p in open_ids:
                open_children[p] += 1
                running.discard(p)
        else:
            open_ids.discard(sid)
            running.discard(sid)
            if p in open_ids:
                open_children[p] -= 1
                if open_children[p] == 0:
                    running.add(p)
    return out


def busy_ratio(spans, name: str) -> float:
    """Summed duration of the children of `name` spans, on all threads, over
    the summed duration of those spans; 0 when no such span ran."""
    parents = {s.id: s.end - s.start for s in spans if s.name == name}
    wall = sum(parents.values())
    busy = sum(s.end - s.start for s in spans if s.parent in parents)
    return busy / wall if wall > 0 else 0.0


def _top_level(spans, names, layer: str):
    """Spans named in `names` that have no ancestor in `layer`."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = by_id.get(s.parent)
        while p is not None and p.layer != layer:
            p = by_id.get(p.parent)
        if p is None:
            out.append(s)
    return out


def layer_metrics(spans, pass_wall: float, bytes_out: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead)."""
    own = self_times(spans)
    by_id = {s.id: s for s in spans}

    def self_of(pred) -> float:
        return sum(own[s.id] for s in spans if pred(s))

    builds = _top_level(spans, _BUILDERS, "weights")
    runs = _top_level(spans, _RUNS, "solver")
    f_spans = [s for s in spans if s.name == _F]
    runs_with_f = set()
    run_ids = {r.id for r in runs}
    for s in f_spans:
        p = by_id.get(s.parent)
        while p is not None and p.id not in run_ids:
            p = by_id.get(p.parent)
        if p is not None:
            runs_with_f.add(p.id)
    steps_with_f = sum(r.info[0] for r in runs if r.id in runs_with_f and r.info)
    ml = [s for s in spans if s.name == "special.mittag_leffler"]
    poisson = [s for s in spans if s.name == "resolvent.poisson_resolvent"]
    return {
        "weights.build_s": self_of(lambda s: s.layer == "weights"),
        "weights.builds": len(builds),
        "weights.terms": sum(s.info or 0 for s in builds),
        "weights.conv_inverse_s": self_of(lambda s: s.name == "weights.conv_inverse"),
        "solver.self_s": self_of(lambda s: s.layer == "solver"),
        "solver.runs": len(runs),
        "solver.steps": sum(r.info[0] for r in runs if r.info),
        "solver.truncations": sum(1 for r in runs if r.info and r.info[1]),
        "solver.f_calls": len(f_spans),
        "solver.f_s": sum(own[s.id] for s in f_spans),
        "solver.f_calls_per_step": len(f_spans) / steps_with_f if steps_with_f else 0.0,
        "special.ml_calls": len(ml),
        "special.ml_s": sum(own[s.id] for s in ml),
        "resolvent.impulse_s": self_of(lambda s: s.name == "resolvent.impulse_resolvent"),
        "resolvent.impulse_steps": sum(s.info or 0 for s in spans
                                       if s.name == "resolvent.impulse_resolvent"),
        "resolvent.poisson_s": sum(own[s.id] for s in poisson),
        "resolvent.poisson_calls": len(poisson),
        "analysis.region_s": self_of(lambda s: s.name in _REGION),
        "analysis.region_points": sum(s.info or 0 for s in _top_level(
            spans, {"analysis.region_boundary"}, "analysis")),
        "analysis.perturbation_s": self_of(lambda s: s.name == "analysis.perturbation_check"),
        "analysis.p_index_s": self_of(lambda s: s.name in _P_INDEX),
        "tables.self_s": self_of(lambda s: s.layer == "tables"),
        "tables.cells": sum(s.info or 0 for s in spans if s.name == "tables.reproduce"),
        "tables.busy_ratio": busy_ratio(spans, "tables.reproduce"),
        "cli.self_s": self_of(lambda s: s.layer == "cli"),
        "cli.bytes_out": bytes_out,
        "trace.accounted": sum(own.values()) / pass_wall if pass_wall > 0 else 0.0,
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over several traced passes."""
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}
