"""Spans around the package's cross-module calls, recorded from outside.

``Tracer.install`` replaces each function listed in ``TRACED`` with a timing
wrapper in every package module that holds it, other than the module that
defines it; harness functions are also replaced in harness itself, because
the benchmark and ``size_census`` reach them there.  Calls a module makes to
its own functions stay unwrapped, so their time is the caller's self time
(the potential phase's inner BFS floods count as the potential phase).

Spans live in memory as (name, start, end, parent) tuples.  A layer's self
time is its spans' durations minus the time their child spans cover.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time
from collections import defaultdict

PACKAGE = "skeleton_nav"
MODULES = ("field", "danger", "skeleton", "uniform", "adaptive", "distsim",
           "harness")

#: Functions traced, by defining module.  Small helpers called once per
#: node (``potential_of_distance``) are left out: a span per call would
#: cost more than the work.
TRACED = {
    "field": ("generate_field", "build_comm_graph", "nearest_node", "hop_bfs"),
    "danger": ("zone_node_mask", "node_in_zone", "points_in_region",
               "boundary_nodes", "parse_zone"),
    "skeleton": ("attach_offstreet_endpoints",),
    "uniform": ("build_uniform_skeleton",),
    "adaptive": ("build_adaptive_skeleton", "detect_voronoi_nodes",
                 "embed_voronoi_streets"),
    "distsim": ("run_bfs_flood", "run_min_exposure", "run_potential_phase",
                "extract_path", "centralized_bfs", "centralized_min_exposure"),
    "harness": ("build_world", "sample_queries", "run_query", "aggregate",
                "csv_text", "size_census"),
}

#: Name of the span the benchmark opens around one timed round.
ROUND = "bench.round"
#: Name of the spans that hold the wrappers' own counting work.
COUNT = "trace.count"


def _counts_of(name: str, result) -> dict[str, float]:
    """Work counts read off a traced call's result (O(1) or one pass)."""
    if name == "distsim.run_bfs_flood":
        return {"bfs_flood_packets": result.total_packets,
                "bfs_flood_rounds": result.rounds}
    if name == "distsim.run_min_exposure":
        return {"exposure_flood_packets": result.total_packets,
                "exposure_flood_rounds": result.rounds}
    if name == "distsim.run_potential_phase":
        return {"potential_packets": result.packets}
    if name == "skeleton.attach_offstreet_endpoints":
        return {"attach_packets": result.packets,
                "endpoint_nodes": sum(
                    1 for p in result.skeleton.provenance.values()
                    if p.value == "endpoint")}
    if name == "adaptive.detect_voronoi_nodes":
        return {"voronoi_nodes": len(result.nodes)}
    return {}


class Tracer:
    """In-memory span recorder for one traced stretch of a run."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = [-1]
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------
    def _open(self) -> int:
        self.spans.append(None)  # placeholder keeps parents ahead of children
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    @contextlib.contextmanager
    def span(self, name: str):
        """A span the benchmark opens itself, around a block."""
        parent = self._stack[-1]
        idx = self._open()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, t0, t1, parent)

    def wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1]
            idx = tracer._open()
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, t0, t1, parent)
            c0 = time.perf_counter()
            for key, val in _counts_of(name, result).items():
                tracer.counts[key] += val
            tracer.spans.append((COUNT, c0, time.perf_counter(), parent))
            return result

        return traced

    # -- patching ----------------------------------------------------------
    def install(self) -> None:
        mods = {m: importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES}
        for home, names in TRACED.items():
            for fname in names:
                original = getattr(mods[home], fname, None)
                if original is None:
                    continue  # renamed or removed: its metrics read 0
                wrapper = self.wrap(f"{home}.{fname}", original)
                for mname, mod in mods.items():
                    if mname == home and home != "harness":
                        continue
                    if getattr(mod, fname, None) is original:
                        self._patched.append((mod, fname, original))
                        setattr(mod, fname, wrapper)

    def uninstall(self) -> None:
        for mod, fname, original in reversed(self._patched):
            setattr(mod, fname, original)
        self._patched.clear()

    # -- analysis ----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Self time per span name, summed over all spans recorded."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for k, (name, t0, t1, _) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[k]
        return dict(out)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
