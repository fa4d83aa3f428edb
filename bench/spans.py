"""Spans around parcut's layers, recorded from outside the package.

`solve` and `verify_solution` look their helpers up as module globals at
call time, so replacing those globals with timing wrappers records every
call into a layer without touching `src/`.  A span is (name, start, end,
parent, op): op numbers the solve or verify call it belongs to, whose own
span is the root.  Private helpers (`_dome_sweep`, `_critical_radius`, ...)
get no span; the time they take shows as the two remainders below.
"""

from __future__ import annotations

import csv
import time
from collections import defaultdict
from contextlib import contextmanager

# span name -> (module of parcut whose global is wrapped, global name); a
# name wrapped in several modules counts in one span name
WRAPPED = {
    "geometry.canonicalize": [("solver", "canonicalize")],
    "geometry.inner_body": [("solver", "inner_body")],
    "geometry.diameter": [("solver", "diameter")],
    "geometry.min_width": [("solver", "min_width")],
    "geometry.clip_halfplane": [("solver", "clip_halfplane")],
    "dome.build_dome": [("solver", "build_dome")],
    "dome.perturb": [("solver", "perturb")],
    "dome.facet_lifetimes": [("solver", "facet_lifetimes")],
    "dome.face_lattice": [("solver", "face_lattice")],
    "dome.bounded_core": [("solver", "bounded_core")],
    "hierarchy.build_hierarchy": [("solver", "build_hierarchy")],
    "queries.lp_max": [("solver", "lp_max")],
    "queries.lp_max_section": [("solver", "lp_max_section")],
    "queries.lp_max_constrained": [("solver", "lp_max_constrained")],
    "queries.facet_max_t": [("solver", "facet_max_t")],
    "lp.small_lp": [("solver", "small_lp"), ("geometry", "small_lp"), ("dome", "small_lp")],
    "solver.eval_fi": [("solver", "eval_fi")],
    "solver.place_cuts": [("solver", "place_cuts")],
    "solver.verify_solution": [("solver", "verify_solution")],
}
# what solve runs before its build_ms mark; everything else it wraps runs after
BUILD = {
    "geometry.canonicalize", "dome.build_dome", "dome.perturb", "dome.facet_lifetimes",
    "dome.face_lattice", "dome.bounded_core", "hierarchy.build_hierarchy",
}
# every per-layer metric, in BENCHMARK.json order, with its unit
METRICS = (
    [(f"{s}_ms", "ms") for s in (
        "geometry.canonicalize", "geometry.inner_body", "geometry.diameter",
        "geometry.min_width", "geometry.clip_halfplane")]
    + [("geometry.clip_halfplane_calls", "count")]
    + [(f"dome.{s}_ms", "ms") for s in (
        "build_dome", "perturb", "facet_lifetimes", "face_lattice", "bounded_core")]
    + [("dome.sweep_events", "count"), ("dome.sweep_ms", "ms")]
    + [("hierarchy.build_hierarchy_ms", "ms"), ("hierarchy.depth", "count"),
       ("hierarchy.total_vertices", "count")]
    + [(f"queries.{q}_{k}", u) for q in (
        "lp_max", "lp_max_section", "lp_max_constrained", "facet_max_t")
       for k, u in (("ms", "ms"), ("calls", "count"))]
    + [("lp.small_lp_ms", "ms"), ("lp.small_lp_calls", "count"), ("lp.small_lp_rows", "count")]
    + [("solver.eval_fi_ms", "ms"), ("solver.eval_fi_calls", "count"),
       ("solver.verify_solution_ms", "ms"), ("solver.place_cuts_ms", "ms"),
       ("solver.root_search_ms", "ms"), ("solver.lp_queries", "count"),
       ("solver.vertex_inspections", "count"), ("solver.binary_search_steps", "count")]
    + [("trace.overhead_ms", "ms"), ("trace.unaccounted_ms", "ms")]
)


class Tracer:
    """Keeps spans in memory; `installed()` swaps the wrappers in and out."""

    def __init__(self, parcut):
        self.modules = {name: getattr(parcut, name) for name in ("solver", "geometry", "dome")}
        self.spans: list[list] = []  # [name, start, end, parent, op]
        self.counts: dict[str, float] = defaultdict(float)
        self.stack: list[int] = []
        self.op = -1

    @contextmanager
    def installed(self):
        saved = []
        for span, places in WRAPPED.items():
            for mod, name in places:
                orig = getattr(self.modules[mod], name)
                saved.append((mod, name, orig))
                setattr(self.modules[mod], name, self._wrap(span, orig))
        try:
            yield self
        finally:
            for mod, name, orig in saved:
                setattr(self.modules[mod], name, orig)

    def _span(self, name, fn, args, kwargs):
        """fn(*args, **kwargs) under a span; returns (result, start, end)."""
        sid = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op])
        self.stack.append(sid)
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            self.stack.pop()
            self.spans[sid][1:3] = t0, t1
        return out, t0, t1

    def _wrap(self, span, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            out = self._span(span, fn, args, kwargs)[0]
            if span == "lp.small_lp":
                counts["lp.small_lp_rows"] += len(args[0])
            elif span == "dome.facet_lifetimes":
                counts["dome.sweep_events"] += out.events
            elif span == "hierarchy.build_hierarchy":
                counts["hierarchy.depth"] += out.depth
                counts["hierarchy.total_vertices"] += out.total_vertices()
            return out

        return wrapper

    def call(self, kind: str, fn, *args):
        """Run one solve or verify call under a root span; returns
        (result, start, end)."""
        self.op += 1
        root = len(self.spans)
        out, t0, t1 = self._span(kind, fn, args, {})
        if kind == "solve":
            self._remainders(root, out.stats, (t1 - t0) * 1e3)
        return out, t0, t1

    def _remainders(self, root: int, stats: dict, outer_ms: float) -> None:
        """Split solve's own build_ms / solve_ms marks into wrapped calls and
        the uncovered rest, and add the counters solve reports."""
        build = after = 0.0
        for name, t0, t1, parent, _ in self.spans[root + 1:]:
            if parent == root:
                if name in BUILD:
                    build += (t1 - t0) * 1e3
                else:
                    after += (t1 - t0) * 1e3
        c = self.counts
        c["dome.sweep_ms"] += stats["build_ms"] - build
        c["solver.root_search_ms"] += stats["solve_ms"] - stats["build_ms"] - after
        c["trace.unaccounted_ms"] += outer_ms - stats["solve_ms"]
        for key in ("lp_queries", "vertex_inspections", "binary_search_steps"):
            c["solver." + key] += stats[key]

    def pass_metrics(self, first_span: int, cases: int) -> dict[str, float]:
        """Per-layer values of the spans since `first_span` and the counts
        gathered since the last call, each per input of the pass."""
        out = defaultdict(float, self.counts)
        for name, t0, t1, parent, _ in self.spans[first_span:]:
            if parent >= 0:
                out[name + "_ms"] += (t1 - t0) * 1e3
                out[name + "_calls"] += 1
        self.counts.clear()
        return {name: out[name] / cases for name, _ in METRICS if name != "trace.overhead_ms"}

    def write(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "name", "start_s", "end_s", "parent", "op"])
            for sid, (name, t0, t1, parent, op) in enumerate(self.spans):
                w.writerow([sid, name, f"{t0:.9f}", f"{t1:.9f}", parent, op])
