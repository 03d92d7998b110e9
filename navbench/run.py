"""skeleton-nav benchmark: three workloads, checked outputs, optional trace.

Run from the repository root:

    python3 navbench/run.py --workload path-region --seed 1 --seconds 30 --trace 0
    python3 navbench/run.py                  # all three, one after another

One run repeats whole rounds of its workload until the next round would
pass ``--seconds``.  Every round rebuilds the same inputs from ``--seed``,
and its outputs are checked against ``checks.py`` after the timed part.
The last stdout line is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: end-to-end metrics with ``--trace 0``,
per-layer metrics from a traced run with ``--trace 1``.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracing import ROUND, Tracer  # noqa: E402

WORKLOADS = ("path-region", "exposure-points", "census-large")
#: Worlds per construction in one census-large round (consecutive seeds).
CENSUS_SEEDS = 2
#: Largest share of a traced round that may fall outside every span.
TRACE_GAP = 0.01
#: The danger layout of exposure-points, fixed like the region fixtures:
#: the Voronoi band's size follows the layout, not the field.
EXPOSURE_DANGER_SEED = 5


def now() -> float:
    return time.perf_counter()


def _root_span(tracer):
    """The round's root span when tracing, nothing otherwise."""
    return tracer.span(ROUND) if tracer is not None else nullcontext()


def import_package():
    """Import skeleton_nav from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "skeleton_nav" / "__init__.py").is_file():
        print(f"navbench: no skeleton_nav package under {src}",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import skeleton_nav.harness as harness
    if not Path(harness.__file__).resolve().is_relative_to(src):
        print(f"navbench: imported {harness.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)
    return harness


def derive(seed: int, tag: int, count: int) -> list[int]:
    """Independent input seeds for one workload, all from --seed."""
    state = np.random.SeedSequence([tag, seed]).generate_state(count)
    return [int(x) for x in state]


def scenario_for(h, name: str, seed: int, n: int | None = None):
    """The workload's scenario; n overrides the size for the warm-up."""
    if name == "path-region":
        fs, qs = derive(seed, 1, 2)
        return h.Scenario(n=n or 16384, seed=fs, zone_kind="complex",
                          skeleton="adaptive", queries=100 if n is None else 2,
                          query_seed=qs, metrics=("path",))
    if name == "exposure-points":
        fs, qs = derive(seed, 2, 2)
        return h.Scenario(n=n or 16384, seed=fs, zone_kind="points",
                          danger_count=8, danger_seed=EXPOSURE_DANGER_SEED,
                          beta=2.0, clamp_radius=1.0, skeleton="adaptive",
                          voronoi=True, queries=60 if n is None else 2,
                          query_seed=qs, metrics=("exposure",))
    (fs,) = derive(seed, 3, 1)
    return h.Scenario(n=n or 65536, seed=fs, zone_kind="complex",
                      skeleton="uniform", epsilon=1 / 6)


@dataclass
class Round:
    """What one round measured, produced and found wrong."""

    traced: bool
    path: bool = False
    setup_s: float = 0.0
    scenario_s: float = 0.0
    op_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    awake: list[int] = field(default_factory=list)
    rows: list = field(default_factory=list)
    sizes: list = field(default_factory=list)
    aggregate: object = None
    counts: dict[str, float] = field(default_factory=dict)
    layers: dict[str, float] = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)
    run_problems: list[str] = field(default_factory=list)


# -- world-level checks ------------------------------------------------------

def world_problems(world, adj) -> list[str]:
    """Graph size, zone membership and zone safety of one built world."""
    s = world.scenario
    pos = world.field.positions
    out = []
    edges = world.graph.edge_count()
    if edges != adj.nnz // 2:
        out.append(f"edge count {edges} != independent {adj.nnz // 2}")
    in_zone = np.zeros(s.n, dtype=bool)
    if world.zone is not None and world.zone.kind == "region":
        in_zone = checks.in_polygon(np.asarray(world.zone.vertices), pos)
    active = checks.as_mask(world.active, s.n)
    if (active != ~in_zone).any():
        out.append(f"{int((active != ~in_zone).sum())} nodes disagree on "
                   "zone membership")
    awake = checks.as_mask(world.skeleton.awake, s.n)
    if (awake & in_zone).any():
        out.append(f"{int((awake & in_zone).sum())} awake nodes in the zone")
    if world.skeleton.size != int(awake.sum()):
        out.append("skeleton size != awake count")
    if world.potentials is not None:
        zone = world.zone
        expected = checks.potentials(
            adj, active, pos, np.asarray(zone.points), s.beta, s.clamp_radius)
        got = np.asarray(world.potentials, dtype=np.float64)
        if not np.allclose(got, expected, rtol=checks.EXPOSURE_RTOL, atol=0):
            out.append("potentials differ from the per-source hop recount")
    if s.skeleton == "uniform":
        grid = np.array([v for v, p in world.skeleton.provenance.items()
                         if p.value == "grid"], dtype=np.int64)
        width = s.width if s.width is not None else 2.0 / s.radio_range
        misses = checks.grid_street_misses(pos, grid, world.field.side,
                                           s.n ** (0.5 - s.epsilon), width)
        if misses:
            out.append(f"{misses} grid-street nodes off every street line")
    return out


def query_problems(world, adj, pairs, rows) -> list[list[str]]:
    """Per query: hops, exposure, packets and ratios against checks.py."""
    from skeleton_nav.skeleton import attach_offstreet_endpoints

    s = world.scenario
    n = s.n
    active = checks.as_mask(world.active, n)
    awake = checks.as_mask(world.skeleton.awake, n)
    srcs = [a for a, _ in pairs]
    # node sets searched on the skeleton: awake plus any attached endpoints
    sg_sets = []
    for a, b in pairs:
        if awake[a] and awake[b]:
            sg_sets.append(awake)
        else:
            att = attach_offstreet_endpoints(world.graph, world.skeleton,
                                             a, b)
            sg_sets.append(checks.as_mask(att.skeleton.awake, n))
    path = "path" in s.metrics
    expo = "exposure" in s.metrics
    if path:
        full = checks.hop_distances(adj, active, srcs)
        sg = _per_set(lambda m, src: checks.hop_distances(adj, m, src),
                      sg_sets, awake, srcs)
    if expo:
        pot = np.asarray(world.potentials, dtype=np.float64)
        e_full = checks.exposure_costs(adj, active, srcs, pot)
        e_sg = _per_set(lambda m, src: checks.exposure_costs(adj, m, src, pot),
                        sg_sets, awake, srcs)
    out = []
    for i, ((a, b), row) in enumerate(zip(pairs, rows)):
        bad = []
        if row is None:
            out.append(["raised"])
            continue
        if (row.src, row.dst) != (a, b):
            bad.append("endpoints differ from the sampled pair")
        if path:
            reach_full = math.isfinite(full[i, b])
            reach_sg = math.isfinite(sg[i][b])
            if row.reachable_full != reach_full or row.reachable_sg != reach_sg:
                bad.append("reachability")
            if reach_full and row.hops_opt != full[i, b]:
                bad.append(f"hops_opt {row.hops_opt} != {full[i, b]}")
            if reach_sg and row.hops_sg != sg[i][b]:
                bad.append(f"hops_sg {row.hops_sg} != {sg[i][b]}")
            reached = int(np.isfinite(sg[i]).sum())
            if not expo and row.packets_sg != reached:
                bad.append(f"packets_sg {row.packets_sg} != reached {reached}")
            if row.packets_full != int(np.isfinite(full[i]).sum()):
                bad.append("packets_full != nodes the oracle reached")
            if row.path_ratio is not None and row.path_ratio < 1:
                bad.append(f"path ratio {row.path_ratio} < 1")
        if expo:
            ok_full = math.isfinite(e_full[i, b])
            ok_sg = math.isfinite(e_sg[i][b])
            if ok_full and not checks.close(row.exposure_opt, e_full[i, b]):
                bad.append(f"exposure_opt {row.exposure_opt} != {e_full[i, b]}")
            if ok_sg and not checks.close(row.exposure_sg, e_sg[i][b]):
                bad.append(f"exposure_sg {row.exposure_sg} != {e_sg[i][b]}")
            if (row.exposure_opt is None) == ok_full or \
                    (row.exposure_sg is None) == ok_sg:
                bad.append("exposure reachability")
            if row.exposure_ratio is not None and \
                    row.exposure_ratio < 1 - checks.RATIO_SLACK:
                bad.append(f"exposure ratio {row.exposure_ratio} < 1")
        out.append(bad)
    return out


def _per_set(fn, sets, awake, srcs):
    """fn over each query's node set; one batched call for the shared set."""
    shared = [k for k, m in enumerate(sets) if m is awake]
    rows = [None] * len(sets)
    if shared:
        batch = fn(awake, [srcs[k] for k in shared])
        for j, k in enumerate(shared):
            rows[k] = batch[j]
    for k, m in enumerate(sets):
        if rows[k] is None:
            rows[k] = fn(m, [srcs[k]])[0]
    return rows


# -- rounds ------------------------------------------------------------------

def query_round(h, sc, tracer, first) -> Round:
    """Build, sample, query, aggregate and render one scenario, then check."""
    rnd = Round(traced=tracer is not None, path="path" in sc.metrics,
                attempted=sc.queries)
    try:
        with _root_span(tracer):
            t0 = now()
            world = h.build_world(sc)
            t1 = now()
            pairs = h.sample_queries(world)
            rows = []
            for i, (a, b) in enumerate(pairs):
                q0 = now()
                try:
                    rows.append(h.run_query(world, i, a, b))
                except Exception:
                    rows.append(None)
                    rnd.problems.append(traceback.format_exc())
                rnd.op_ms.append((now() - q0) * 1e3)
            kept = [r for r in rows if r is not None]
            agg = h.aggregate(world, kept)
            h.csv_text(kept + [agg])
            t2 = now()
    except Exception:
        rnd.failed = rnd.attempted
        rnd.problems.append(traceback.format_exc())
        return rnd
    rnd.setup_s = t1 - t0
    rnd.scenario_s = t2 - t0
    rnd.awake = [world.skeleton.size]
    rnd.rows = rows
    rnd.aggregate = agg

    adj = checks.adjacency(world.field.positions, sc.radio_range)
    bad_world = world_problems(world, adj)
    bad = query_problems(world, adj, pairs, rows)
    if len(pairs) != sc.queries:
        bad_world.append(f"{len(pairs)} pairs sampled, {sc.queries} asked")
    for i, row in enumerate(rows):
        if first is not None and row is not None and row != first.rows[i]:
            bad[i].append("differs from the first round's row")
    for i, b in enumerate(bad):
        if b or bad_world:
            rnd.failed += 1
            rnd.problems.append(f"query {i}: " + "; ".join(bad_world + b))
    rnd.failed += sc.queries - len(pairs)
    rnd.run_problems += aggregate_problems(world, kept, agg)
    rnd.counts = world_counts(world)
    rnd.counts["harness.resampled"] = world.resampled
    rnd.counts["distsim.oracle_bfs_reached"] = sum(
        r.packets_full for r in kept) if "path" in sc.metrics else 0
    return rnd


def census_round(h, sc, tracer, first) -> Round:
    """size_census of each construction over CENSUS_SEEDS seeds, checked."""
    rnd = Round(traced=tracer is not None)
    built = []

    def capture(fn):
        def build_world(s):
            b0 = now()
            world = fn(s)
            built.append((world, now() - b0))
            return world
        return build_world

    sizes = []
    for construction in ("uniform", "adaptive"):
        for k in range(CENSUS_SEEDS):
            s = replace(sc, skeleton=construction, seed=sc.seed + k)
            rnd.attempted += 1
            original = h.build_world
            h.build_world = capture(original)
            try:
                with _root_span(tracer):
                    c0 = now()
                    census = h.size_census(s, 1)
                    c1 = now()
            except Exception:
                rnd.failed += 1
                rnd.problems.append(traceback.format_exc())
                continue
            finally:
                h.build_world = original
            world, build_s = built.pop()
            rnd.op_ms.append((c1 - c0) * 1e3)
            rnd.setup_s += build_s
            rnd.scenario_s += c1 - c0
            rnd.awake.append(world.skeleton.size)
            sizes.append(census["sizes"])

            adj = checks.adjacency(world.field.positions, s.radio_range)
            bad = world_problems(world, adj)
            if census["sizes"] != [world.skeleton.size]:
                bad.append(f"census size {census['sizes']} != awake count "
                           f"{world.skeleton.size}")
            for key, val in world_counts(world).items():
                rnd.counts[key] = rnd.counts.get(key, 0) + val
            if bad:
                rnd.failed += 1
                rnd.problems.append(f"census {construction} seed {s.seed}: "
                                    + "; ".join(bad))
            del world, adj
    rnd.sizes = sizes
    if first is not None and sizes != first.sizes:
        rnd.run_problems.append("census sizes differ from the first round")
    return rnd


def world_counts(world) -> dict[str, float]:
    """Work sizes read off a built world: edges, leaves, awake by origin."""
    out = {"field.edges": world.graph.edge_count()}
    leaves = getattr(world.skeleton.geometry, "leaves", None)
    out["adaptive.quadtree_leaves"] = len(leaves) if leaves is not None else 0
    for tag in ("grid", "perimeter", "quadtree", "voronoi", "endpoint"):
        out[f"skeleton.awake.{tag}"] = 0
    for p in world.skeleton.provenance.values():
        out[f"skeleton.awake.{p.value}"] += 1
    return out


def aggregate_problems(world, rows, agg) -> list[str]:
    """The aggregate row against the query rows it summarises."""
    out = []
    if agg.skeleton_size != world.skeleton.size:
        out.append("aggregate skeleton_size != awake count")
    kept = [r for r in rows if not r.flagged]
    for name, attr in (("path_ratio_mean", "path_ratio"),
                       ("exposure_ratio_mean", "exposure_ratio")):
        vals = [getattr(r, attr) for r in kept if getattr(r, attr) is not None]
        got = getattr(agg, name)
        if vals and (got is None or not checks.close(got, float(np.mean(vals)),
                                                      1e-12)):
            out.append(f"aggregate {name} {got} != mean of rows")
    return out


# -- measuring ---------------------------------------------------------------

def warm_up(h, name: str, seed: int) -> None:
    """One small untimed round so imports and first-call costs are paid.

    A failure here is only reported: the measured rounds count it.
    """
    sc = scenario_for(h, name, seed, n=1024)
    try:
        if name == "census-large":
            for construction in ("uniform", "adaptive"):
                h.size_census(replace(sc, skeleton=construction), 1)
        else:
            world = h.build_world(sc)
            rows = [h.run_query(world, i, a, b)
                    for i, (a, b) in enumerate(h.sample_queries(world))]
            h.csv_text(rows + [h.aggregate(world, rows)])
    except Exception:
        print(f"navbench: warm-up: {traceback.format_exc()}", file=sys.stderr)


def measure(h, name: str, seconds: float, seed: int,
            trace: bool) -> list[Round]:
    """Whole rounds until the next would end past the time budget.

    A traced run spends the first half untraced, to give the tracing
    overhead a baseline, and the second half traced.
    """
    sc = scenario_for(h, name, seed)
    run_round = census_round if name == "census-large" else query_round
    phases = [(None, seconds)]
    if trace:
        phases = [(None, seconds / 2), (Tracer(), seconds)]
    start = now()
    rounds: list[Round] = []
    for tracer, until in phases:
        if tracer is not None:
            tracer.install()
        try:
            last = 0.0
            done = 0
            while done == 0 or now() - start + last <= until:
                r0 = now()
                first = next((r for r in rounds if r.op_ms), None)
                if tracer is not None:
                    tracer.reset()
                rnd = run_round(h, sc, tracer, first)
                if tracer is not None:
                    rnd.layers = tracer.self_times()
                    rnd.counts.update(tracer.counts)
                rounds.append(rnd)
                done += 1
                last = now() - r0
        finally:
            if tracer is not None:
                tracer.uninstall()
    return rounds


def tail(values: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it.

    Nearest-rank percentile; None below forty samples, where no such
    percentile would be a tail.
    """
    n = len(values)
    if n < 40:
        return None
    p = math.floor(100 * (n - 10) / n)
    return p, sorted(values)[math.ceil(p * n / 100) - 1]


def query_figures(rounds: list[Round]) -> dict[str, float]:
    """Stretch and packet figures of the query rows (identical per round)."""
    rows = [r for rnd in rounds for r in rnd.rows if r is not None]
    aggs = [rnd.aggregate for rnd in rounds if rnd.aggregate is not None]

    def mean_of(attr):
        vals = [getattr(a, attr) for a in aggs if getattr(a, attr) is not None]
        return float(np.mean(vals)) if vals else 0.0

    packets = [r.packets_sg + r.packets_attach for rnd in rounds if rnd.path
               for r in rnd.rows if r is not None]
    return {
        "path_stretch_mean": mean_of("path_ratio_mean"),
        "exposure_stretch_mean": mean_of("exposure_ratio_mean"),
        "bfs_packets_per_query": float(np.mean(packets)) if packets else 0.0,
    }


END_TO_END = {
    "setup_s": "s", "scenario_s": "s", "op_ms": "ms",
    "peak_rss_mb": "MB", "awake_nodes": "nodes",
}

SELF_TIMES = {
    "field.comm_graph_s": ("field.build_comm_graph",),
    "field.nearest_node_s": ("field.nearest_node",),
    "field.generate_s": ("field.generate_field",),
    "danger.zone_mask_s": ("danger.zone_node_mask",),
    "danger.boundary_nodes_s": ("danger.boundary_nodes",),
    "uniform.skeleton_s": ("uniform.build_uniform_skeleton",),
    "adaptive.skeleton_s": ("adaptive.build_adaptive_skeleton",),
    "adaptive.voronoi_s": ("adaptive.detect_voronoi_nodes",
                           "adaptive.embed_voronoi_streets"),
    "skeleton.attach_s": ("skeleton.attach_offstreet_endpoints",),
    "distsim.oracle_bfs_s": ("distsim.centralized_bfs",),
    "distsim.bfs_flood_s": ("distsim.run_bfs_flood",),
    "distsim.oracle_exposure_s": ("distsim.centralized_min_exposure",),
    "distsim.exposure_flood_s": ("distsim.run_min_exposure",),
    "distsim.potential_phase_s": ("distsim.run_potential_phase",),
    "distsim.extract_path_s": ("distsim.extract_path",),
    "harness.build_world_self_s": ("harness.build_world",),
    "harness.sample_queries_s": ("harness.sample_queries",),
    "harness.run_query_self_s": ("harness.run_query",),
    "harness.csv_s": ("harness.csv_text",),
}

#: Per-layer counts: metric name -> key in Round.counts.
COUNTS = {
    "field.edges": "field.edges",
    "adaptive.quadtree_leaves": "adaptive.quadtree_leaves",
    "adaptive.voronoi_nodes": "voronoi_nodes",
    "skeleton.awake.grid": "skeleton.awake.grid",
    "skeleton.awake.perimeter": "skeleton.awake.perimeter",
    "skeleton.awake.quadtree": "skeleton.awake.quadtree",
    "skeleton.awake.voronoi": "skeleton.awake.voronoi",
    "skeleton.awake.endpoint": "endpoint_nodes",
    "skeleton.attach_packets": "attach_packets",
    "distsim.oracle_bfs_reached": "distsim.oracle_bfs_reached",
    "distsim.bfs_flood_packets": "bfs_flood_packets",
    "distsim.bfs_flood_rounds": "bfs_flood_rounds",
    "distsim.exposure_flood_packets": "exposure_flood_packets",
    "distsim.exposure_flood_rounds": "exposure_flood_rounds",
    "distsim.potential_packets": "potential_packets",
    "harness.resampled": "harness.resampled",
}


def end_to_end(rounds: list[Round]) -> dict[str, float]:
    """Medians over the run's rounds, except ``op_ms``.

    ``op_ms`` is the mean over every operation of the run.  On a shared
    host the CPU's speed can flip between a fast and a slow state every few
    seconds; the median of single operations then jumps between the two
    states from run to run, while the mean moves only with the share of
    time spent slow.
    """
    ok = [r for r in rounds if r.op_ms]
    awake = [x for r in ok for x in r.awake]
    return {
        "setup_s": statistics.median(r.setup_s for r in ok),
        "scenario_s": statistics.median(r.scenario_s for r in ok),
        "op_ms": statistics.fmean(x for r in ok for x in r.op_ms),
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "awake_nodes": float(np.mean(awake)),
    }


def per_layer(rounds: list[Round]) -> tuple[dict, dict, list[str]]:
    """Per-round means over the traced rounds, plus the tracing checks."""
    traced = [r for r in rounds if r.traced and r.op_ms]
    plain = [r for r in rounds if not r.traced and r.op_ms]
    values, units, problems = {}, {}, []
    for metric, spans in SELF_TIMES.items():
        values[metric] = float(np.mean(
            [sum(r.layers.get(s, 0.0) for s in spans) for r in traced]))
        units[metric] = "s"
    for metric, key in COUNTS.items():
        values[metric] = float(np.mean([r.counts.get(key, 0) for r in traced]))
        units[metric] = "count"
    for metric, val in query_figures(traced).items():
        values[f"harness.{metric}"] = val
        units[f"harness.{metric}"] = "ratio" if "stretch" in metric else \
            "packets"
    values["trace.overhead_s"] = (
        statistics.median(r.scenario_s for r in traced)
        - statistics.median(r.scenario_s for r in plain))
    units["trace.overhead_s"] = "s"
    gaps = [r.layers.get(ROUND, 0.0) for r in traced]
    values["trace.unattributed_s"] = float(np.mean(gaps))
    units["trace.unattributed_s"] = "s"
    for r, gap in zip(traced, gaps):
        if gap > TRACE_GAP * r.scenario_s:
            problems.append(f"{gap:.4f} s of a {r.scenario_s:.3f} s traced "
                            f"round lies outside every span")
    return values, units, problems


# -- entry points ------------------------------------------------------------

def run_one(args) -> int:
    h = import_package()
    warm_up(h, args.workload, args.seed)
    rounds = measure(h, args.workload, args.seconds, args.seed, bool(args.trace))
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    run_problems = [p for r in rounds for p in r.run_problems]
    for p in [p for r in rounds for p in r.problems][:5]:
        print(f"navbench: {args.workload}: {p}", file=sys.stderr)
    metrics = {}
    if any(r.op_ms for r in rounds):
        if args.trace:
            values, units, problems = per_layer(rounds)
            run_problems += problems
        else:
            values = end_to_end(rounds)
            units = dict(END_TO_END)
            for key, val in query_figures(rounds).items():
                if val:
                    values[key] = val
                    units[key] = "ratio" if "stretch" in key else "packets"
            ops = [x for r in rounds for x in r.op_ms]
            t = tail(ops) if args.workload != "census-large" else None
            if t is not None:
                values["query_ms_p50"] = statistics.median(ops)
                units["query_ms_p50"] = f"ms (of {len(ops)})"
                values["query_ms_tail"] = t[1]
                units["query_ms_tail"] = f"ms (p{t[0]} of {len(ops)})"
        for key, val in values.items():
            print(f"{args.workload:16s} {key:32s} {val:14.6g} {units[key]}")
        declared = units if args.trace else END_TO_END
        metrics = {k: {"value": values[k], "unit": units[k].split()[0]}
                   for k in declared}
    else:
        run_problems.append("no round completed")
    for p in run_problems:
        print(f"navbench: {args.workload}: {p}", file=sys.stderr)
    print(f"{args.workload:16s} rounds {len(rounds)}, operations {attempted}, "
          f"failed {failed}")
    print(json.dumps({"correct": not run_problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 and not run_problems else 1


def run_all(args) -> int:
    """Each workload in its own process, one after another, so that each
    peak_rss_mb is that workload's own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()),
               "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=900)
        lines = proc.stdout.splitlines()
        for line in lines[:-1]:
            print(line)
        status = status or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"navbench: {name} printed no result", file=sys.stderr)
            return proc.returncode or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    print(json.dumps(merged))
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
