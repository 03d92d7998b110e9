"""Reproduce the measured constants frozen into the test suite.

Every numeric bound the tests pin (size bands, stretch means, slopes,
message counts, trace strings) was first measured here and then frozen
with a margin.  Run a section again before touching a constant:

    python3 scripts/measure_baselines.py --section sizes --section stretch

With no --section the whole sweep runs; the gate-level sections take
about a minute combined.  The census-scaling section builds worlds up to
n = 2^20 and prints the process's own peak RSS; the retire section times
the cluster retirement up to n = 2^18; the query-scaling section
times one query's skeleton flood (with its parents unread, then read),
targeted hop oracle and full hop table up to n = 2^18, with the size of
the source's oracle component (what a full flood is charged), the hop
oracle and the full table again on 10 pairs drawn uniformly from the
out-of-zone nodes, and one query's exposure flood (parents unread, then
read) and exposure oracle (with the world's weights kept, and gathered
per call from a writable copy of the potentials) at n = 2^14 and 2^16.
Before the queries it times the one-off builds (comm graph, oracle graph,
component labels, the oracle's padded neighbour table, the exposure
oracle's weights) with each one's tracemalloc peak and the process's peak
RSS after it.
"""
from __future__ import annotations

import argparse
import math
import resource
import time
import tracemalloc

import numpy as np

from skeleton_nav.adaptive import (build_adaptive_skeleton, build_quadtree,
                                   detect_voronoi_nodes,
                                   simulate_cluster_retirement)
from skeleton_nav.danger import (DangerZone, PotentialModel, path_exposure,
                                 perimeter_length, points_in_region,
                                 well_behaved_check, zone_node_mask)
from skeleton_nav.distsim import (centralized_bfs, centralized_min_exposure,
                                  oracle_weights, run_bfs_flood,
                                  run_min_exposure, run_potential_phase)
from skeleton_nav.field import SensorField, build_comm_graph, generate_field
from skeleton_nav.harness import (Scenario, auto_tune_epsilon, build_world,
                                  fixture_zone, run_query, run_scenario,
                                  sample_queries, size_census)
from skeleton_nav.skeleton import attach_offstreet_endpoints
from skeleton_nav.uniform import (UniformStreetConfig, build_uniform_skeleton,
                                  prune_street)

INF = math.inf


def graph(n: int, seed: int):
    return build_comm_graph(generate_field(n, 3.0, seed))


def connectivity_census(n: int, radio_range: float, seeds) -> float:
    """Fraction of seeds for which the comm graph comes out connected.

    With density 1 the graph is almost always disconnected below r ~ 1.5
    and solidly connected by r = 3.
    """
    seeds = list(seeds)
    hits = sum(INF not in run_bfs_flood(
        build_comm_graph(generate_field(n, radio_range, s)), None, 0).value
        for s in seeds)
    return hits / len(seeds)


def section_census():
    print("== connectivity census n=64, seeds 0..9 ==")
    print("r=3.0:", connectivity_census(64, 3.0, range(10)))
    print("r=1.0:", connectivity_census(64, 1.0, range(10)))


def section_grid():
    print("== uniform n=1024 eps=1/6 no zone, seeds 0..2 ==")
    for sd in (0, 1, 2):
        sk = build_uniform_skeleton(graph(1024, sd), None,
                                    UniformStreetConfig(epsilon=1 / 6))
        print("seed", sd, "size", sk.size)

    print("== shift overlap n=4096 eps=1/6 seed 2 ==")
    g4 = graph(4096, 2)
    s_sep = UniformStreetConfig(epsilon=1 / 6).separation(4096)
    awakes = {}
    for frac in (0.0, 0.25, 0.5, 0.75):
        c = UniformStreetConfig(epsilon=1 / 6, shift=frac * s_sep)
        awakes[frac] = build_uniform_skeleton(g4, None, c).awake
    size = {frac: int(np.count_nonzero(m)) for frac, m in awakes.items()}
    base, half = awakes[0.0], awakes[0.5]
    print("size shift0:", size[0.0], "shift s/2:", size[0.5])
    print("overlap frac:", np.count_nonzero(base & half) / size[0.0])
    union = int(np.count_nonzero(np.logical_or.reduce(list(awakes.values()))))
    print("union size:", union, "ratio vs single:", union / size[0.0])

    print("== auto tune eps, n=1024 no zone, target 300 ==")
    base = Scenario(n=1024, seed=0, zone_kind="none", skeleton="uniform")
    eps, size = auto_tune_epsilon(base, 300.0)
    print("eps:", eps, "size:", size)


def voronoi_band(g, sites):
    """The band read off a potential phase over every node of g."""
    return detect_voronoi_nodes(
        run_potential_phase(g, None, PotentialModel(sources=sites)))


def section_voronoi():
    g1 = graph(1024, 3)

    print("== voronoi 2 sources n=1024 seed 3 ==")
    band2 = voronoi_band(g1, [(8.0, 16.0), (24.0, 16.0)])
    xs = g1.field.positions[band2.nodes, 0]
    print("band size:", len(band2.nodes), "degenerate:", band2.degenerate)
    print("mean |x-16|:", float(np.mean(np.abs(xs - 16.0))),
          "max:", float(np.max(np.abs(xs - 16.0))))

    print("== voronoi 3 sources n=1024 seed 3 ==")
    sites = np.array([(6.0, 6.0), (26.0, 8.0), (16.0, 26.0)])
    band3 = voronoi_band(g1, sites)
    vals = []
    for v in band3.nodes:
        d = np.hypot(*(sites - g1.field.positions[v]).T)
        order = np.argsort(d)
        i, j = int(order[0]), int(order[1])
        ab = float(np.hypot(*(sites[i] - sites[j])))
        vals.append(abs(d[i] ** 2 - d[j] ** 2) / (2 * ab))
    print("band size:", len(band3.nodes), "degenerate:", band3.degenerate)
    print("bisector dist mean:", float(np.mean(vals)), "max:", max(vals))

    print("== collocated sources ==")
    bandc = voronoi_band(g1, [(10.0, 10.0), (10.0, 10.0)])
    print("band size:", len(bandc.nodes), "of", g1.n,
          "degenerate:", bandc.degenerate)

    print("== 3-source exposure ratios on adaptive+voronoi ==")
    for qs in (0, 1, 2):
        s = Scenario(n=1024, seed=3, zone_kind="points", danger_count=3,
                     danger_seed=7, skeleton="adaptive", voronoi=True,
                     metrics=("exposure",), queries=10, query_seed=qs)
        agg = run_scenario(s)[-1]
        print(f"query_seed={qs} mean={agg.exposure_ratio_mean:.4f} "
              f"max={agg.exposure_ratio_max:.4f} excluded={agg.excluded}")


def section_quadtree():
    print("== crossed cells per level, side 32 ==")
    for name in ("simple", "complex"):
        zone = fixture_zone(name).zone
        p = perimeter_length(zone)
        print(name, "perimeter:", p)
        for k, crossed in enumerate(build_quadtree(zone, 32.0).crossed):
            print(f"  level {k}: crossed {int(crossed.sum())}  "
                  f"cap 4p/2^k = {4 * p / (1 << k):.1f}")
        for side in (32, 64, 128):
            tree = build_quadtree(zone, float(side))
            print(f"  side {side}: leaves {len(tree.leaves)} "
                  f"street len {tree.street_length():.0f} "
                  f"cap 8p*log2(side) {8 * p * math.log2(side):.0f}")

    print("== quadtree 4x4 unit zone ==")
    unit = DangerZone.region([(1, 1), (2, 1), (2, 2), (1, 2)])
    t44 = build_quadtree(unit, 4.0)
    segs = set()
    for leaf in t44.leaves:
        s = leaf.size
        for k in range(s):
            segs.add(("v", leaf.x0, leaf.y0 + k))
            segs.add(("v", leaf.x0 + s, leaf.y0 + k))
            segs.add(("h", leaf.x0 + k, leaf.y0))
            segs.add(("h", leaf.x0 + k, leaf.y0 + s))
    print("leaves:", len(t44.leaves), "street len:", t44.street_length(),
          "unit segment count:", len(segs))


def cluster_recount(pos: np.ndarray, side: int, half: float) -> int:
    """Messages of the retirement with no zone, counted cell by cell.

    A cell's cluster holds the sensors within `half` of its boundary: the
    least gap to an edge for a sensor inside, the distance to the square
    for one outside.  Each member walks the boundary once, and every
    non-empty cluster below the root notifies its parent.
    """
    x, y = pos.T
    total = 0
    s = side
    while s >= 1:
        for x0 in range(0, side, s):
            for y0 in range(0, side, s):
                inner = np.minimum(np.minimum(x - x0, x0 + s - x),
                                   np.minimum(y - y0, y0 + s - y))
                outer = np.hypot(np.maximum(np.maximum(x0 - x, x - x0 - s), 0),
                                 np.maximum(np.maximum(y0 - y, y - y0 - s), 0))
                members = np.count_nonzero(np.maximum(inner, 0) + outer
                                           <= half)
                total += members + (s < side and members > 0)
        s //= 2
    return total


def section_retire():
    g256 = graph(256, 4)
    g1 = graph(1024, 3)

    print("== retirement equals direct construction ==")
    sq = DangerZone.region([(4, 4), (10, 4), (10, 10), (4, 10)])
    ret = simulate_cluster_retirement(g256, sq)
    direct = build_adaptive_skeleton(g256, sq)
    print("n=256 square: equal:", np.array_equal(ret.awake, direct.awake),
          "size:", np.count_nonzero(ret.awake), "messages:", ret.messages)
    zs = fixture_zone("simple").zone
    ret1 = simulate_cluster_retirement(g1, zs)
    dir1 = build_adaptive_skeleton(g1, zs)
    print("n=1024 simple: equal:", np.array_equal(ret1.awake, dir1.awake),
          "size:", np.count_nonzero(ret1.awake))

    print("== retirement message recount, no zone n=256 ==")
    ret0 = simulate_cluster_retirement(g256, None)
    expect = cluster_recount(g256.field.positions, 16, 1.0 / 3.0)
    print("messages:", ret0.messages, "recount:", expect,
          "equal:", ret0.messages == expect)
    pos = g256.field.positions
    border = np.minimum(pos.min(axis=1), 16 - pos.max(axis=1)) <= 1.0 / 3.0
    print("no-zone awake == border strip:",
          np.array_equal(ret0.awake, border))

    print("== adaptive no-zone awake recount n=1024 ==")
    sk0 = build_adaptive_skeleton(g1, None)
    pos = g1.field.positions
    margin = np.minimum(np.minimum(pos[:, 0], 32 - pos[:, 0]),
                        np.minimum(pos[:, 1], 32 - pos[:, 1]))
    print("equal:", np.array_equal(sk0.awake, margin <= 1.0 / 3.0),
          "size:", sk0.size)

    print("== retirement scaling, complex zone, seed 1 (median of 3) ==")
    zc = fixture_zone("complex").zone
    for k in (12, 14, 16, 18):
        gk = graph(2 ** k, 1)
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            rk = simulate_cluster_retirement(gk, zc)
            times.append(time.perf_counter() - t0)
        print(f"n=2^{k}: messages {rk.messages}, awake "
              f"{np.count_nonzero(rk.awake)}, {np.median(times) * 1e3:.0f} ms")


def section_attach():
    print("== attach reachability, 50 active pairs, n=1024 seed 5 ==")
    # built directly, as the test does, at width 2.5: some active nodes
    # stay asleep, so some endpoints are attached
    g5 = graph(1024, 5)
    zone = fixture_zone("simple").zone
    sk5 = build_uniform_skeleton(
        g5, zone, UniformStreetConfig(epsilon=1 / 6, width=2.5))
    active = ~zone_node_mask(zone, g5.field.positions)
    print("awake:", sk5.size, "of", int(active.sum()), "active;",
          "components:", np.unique(sk5.search.component_labels).size)
    rng = np.random.default_rng(123)
    act = np.flatnonzero(active)
    bad = attached = 0
    for _ in range(50):
        a, b = (int(v) for v in rng.choice(act, size=2, replace=False))
        att = attach_offstreet_endpoints(g5, sk5, a, b)
        attached += att.packets > 0
        run = run_bfs_flood(g5, att.skeleton.awake, a)
        full = centralized_bfs(g5, active, a)
        bad += (run.value[b] != INF) != (full[b] != INF)
    print("attached pairs:", attached, "mismatches:", bad)

    print("== attach time, 40 off-street sources, n=16384 seed 5, complex "
          "zone, adaptive skeleton ==")
    # the destination is a street node, so only the source's ring runs;
    # each figure is the median of three calls per source, averaged
    world = build_world(Scenario(n=2 ** 14, seed=5, zone_kind="complex",
                                 skeleton="adaptive"))
    g, sk = world.graph, world.skeleton
    off = np.flatnonzero(world.active & ~sk.search.mask)
    street = int(sk.search.ids.min())
    sources = np.random.default_rng(5).choice(off, size=40, replace=False)
    t0 = time.perf_counter()
    sk.active  # the search graph the ring floods, built on first use
    build = time.perf_counter() - t0
    per_call, packets = [], []
    for a in sources.tolist():
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            att = attach_offstreet_endpoints(g, sk, a, street)
            times.append(time.perf_counter() - t0)
        per_call.append(sorted(times)[1])
        packets.append(att.packets)
    print(f"awake {sk.size}; search graph built once in {build * 1e3:.2f} "
          f"ms; attach {np.mean(per_call) * 1e3:.3f} ms per call, "
          f"{np.mean(packets):.0f} packets per source")


def section_traces():
    print("== tiny trace fixtures ==")
    posz = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    tiny = SensorField(n=4, side=2.0, radio_range=1.0, seed=0, positions=posz)
    gt = build_comm_graph(tiny)
    print("adj:", gt.adj)
    lines: list[str] = []
    r = run_bfs_flood(gt, None, 0, trace=lines.append)
    print("bfs trace:", lines, "tx:", r.transmissions, "rounds:", r.rounds)
    lines2: list[str] = []
    r2 = run_min_exposure(gt, None, 0, [0.0, 1.0, 0.5, 0.25],
                          trace=lines2.append)
    print("exposure trace:", lines2, "value:", r2.value, "rounds:", r2.rounds)

    print("== kdtree inclusive edge ==")
    ph = np.array([[0.0, 0.0], [3.0, 0.0], [7.0, 0.0], [7.0, 3.0]])
    fh = SensorField(n=4, side=10.0, radio_range=3.0, seed=0, positions=ph)
    print("adj:", build_comm_graph(fh).adj)

    print("== prune sanity, n=256 seed 4 ==")
    g256 = graph(256, 4)
    d0 = run_bfs_flood(g256, None, 7).value
    pr, ok = prune_street(g256, np.ones(g256.n, dtype=bool), (7, 101))
    print("ok:", ok, "len:", np.count_nonzero(pr), "bfs dist:", d0[101])

    print("== scenario digest ==")
    print("default:", Scenario().digest)


def section_sizes():
    print("== skeleton size bands, seeds 0..19 ==")
    zone = fixture_zone("simple").zone
    seeds = range(20)
    small = [build_adaptive_skeleton(graph(1024, s), zone).size
             for s in seeds]
    large = [build_adaptive_skeleton(graph(16384, s), zone).size
             for s in seeds]
    cfg = UniformStreetConfig(epsilon=1 / 6)
    grid = [build_uniform_skeleton(graph(4096, s), zone, cfg).size
            for s in seeds]
    for tag, sizes in (("adaptive n=1024", small), ("adaptive n=16384", large),
                       ("uniform n=4096", grid)):
        print(f"{tag}: mean {np.mean(sizes):.1f} "
              f"min {min(sizes)} max {max(sizes)}")


def section_slope():
    print("== uniform size scaling, eps=0.05, seeds 0..19 ==")
    cfg = UniformStreetConfig(epsilon=0.05)
    ns = (1024, 4096, 16384)
    means = []
    for n in ns:
        sizes = [build_uniform_skeleton(graph(n, s), None, cfg).size
                 for s in range(20)]
        means.append(float(np.mean(sizes)))
        print(f"n={n}: mean size {means[-1]:.1f}")
    slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    print("log-log slope:", slope)


def section_stretch():
    print("== path stretch, n=4096 seed 5, 200 pairs ==")
    for zone_kind in ("simple", "complex"):
        c = well_behaved_check(fixture_zone(zone_kind).zone,
                               [2.0, 4.0, 8.0, 16.0, 32.0])
        print(f"{zone_kind}: detour cost {c:.3f}")
        for kind in ("uniform", "adaptive"):
            s = Scenario(n=4096, seed=5, zone_kind=zone_kind, skeleton=kind,
                         epsilon=1 / 6, width=5.0, queries=200,
                         query_seed=11, metrics=("path",))
            world = build_world(s)
            rows = [run_query(world, i, a, b)
                    for i, (a, b) in enumerate(sample_queries(world))]
            ratios = [r.path_ratio for r in rows if not r.flagged]
            print(f"  {kind}: served {len(ratios)}/200 "
                  f"mean {np.mean(ratios):.4f} worst {max(ratios):.4f}")


def section_exposure():
    print("== exposure stretch, 20 point-danger scenarios x 2 skeletons ==")
    pooled = {"uniform": [], "adaptive": []}
    excluded = 0
    for i in range(20):
        for kind in ("uniform", "adaptive"):
            s = Scenario(n=4096, seed=100 + i, zone_kind="points",
                         danger_count=3, danger_seed=200 + i, skeleton=kind,
                         epsilon=0.2, width=2.5, voronoi=(kind == "adaptive"),
                         queries=10, query_seed=300 + i,
                         metrics=("exposure",))
            rows = run_scenario(s)
            excluded += rows[-1].excluded
            pooled[kind].extend(r.exposure_ratio for r in rows[:-1]
                                if r.exposure_ratio is not None)
    for kind, vals in pooled.items():
        print(f"{kind}: served {len(vals)}/200 mean {np.mean(vals):.4f} "
              f"max {max(vals):.4f}")
    print("excluded:", excluded)


def section_decay():
    print("== straight-path exposure decay ==")
    step = 0.25
    xs = np.arange(-600.0, 600.0 + step / 2, step)
    standoffs = (4.0, 8.0, 16.0, 32.0)
    for beta in (1.5, 2.0, 3.0):
        model = PotentialModel(sources=np.array([[0.0, 0.0]]), beta=beta,
                               clamp_radius=1.0)
        sums = [path_exposure(model, [(x, d) for x in xs])
                for d in standoffs]
        slope = float(np.polyfit(np.log(standoffs), np.log(sums), 1)[0])
        print(f"beta {beta:g}: slope {slope:.4f} ideal {1.0 - beta:g} "
              f"|err| {abs(slope - (1.0 - beta)):.4f}")


def section_parity():
    print("== zone safety and reachability parity, n=1024 seed 5 ==")
    g = graph(1024, 5)
    cfg = UniformStreetConfig(epsilon=1 / 6, width=5.0)
    inside = 0
    skeletons = {}
    for name in ("simple", "complex"):
        zone = fixture_zone(name).zone
        for kind, sk in (("uniform", build_uniform_skeleton(g, zone, cfg)),
                         ("adaptive",
                          build_adaptive_skeleton(g, zone, width=5.0))):
            inside += int(points_in_region(zone,
                                           g.field.positions[sk.awake]).sum())
            skeletons[(name, kind)] = sk
    print("awake nodes inside zones:", inside)

    rng = np.random.default_rng(404)
    zone = fixture_zone("simple").zone
    active = ~zone_node_mask(zone, g.field.positions)
    mismatches = 0
    for kind in ("uniform", "adaptive"):
        sk = skeletons[("simple", kind)]
        awake = np.flatnonzero(sk.awake)
        for _ in range(200):
            a, b = (int(v) for v in rng.choice(awake, size=2, replace=False))
            on_sk = run_bfs_flood(g, sk.awake, a).value[b] != INF
            on_full = centralized_bfs(g, active, a)[b] != INF
            mismatches += on_sk != on_full
    print("reachability mismatches:", mismatches, "of 400")


def section_flood():
    print("== flood packet budget, 200 instances ==")
    rng = np.random.default_rng(0)
    start = time.perf_counter()
    worst_n = 0
    for k in range(200):
        n = 16384 if k == 0 else int(round(2.0 ** rng.uniform(6.0, 14.0)))
        worst_n = max(worst_n, n)
        g = build_comm_graph(generate_field(n, 3.0, k))
        if k % 3 == 0:
            active = frozenset(range(n))
        else:
            active = frozenset(np.flatnonzero(rng.random(n) < 0.6).tolist())
            if not active:
                active = frozenset({0})
        src = int(rng.choice(sorted(active)))
        run = run_bfs_flood(g, active, src)
        reached = sum(1 for v in range(n) if run.value[v] != INF)
        assert run.total_packets == reached
    print(f"largest n {worst_n}, elapsed {time.perf_counter() - start:.1f}s")


def section_oracles():
    print("== distributed vs centralized, 50 random subgraphs ==")
    rng = np.random.default_rng(1)
    bad = 0
    for k in range(50):
        n = int(rng.integers(64, 1025))
        g = graph(n, 5000 + k)
        keep = rng.random(n) < 0.75
        keep[0] = True
        active = frozenset(np.flatnonzero(keep).tolist())
        src = int(rng.choice(sorted(active)))
        bad += run_bfs_flood(g, active, src).value != \
            centralized_bfs(g, active, src)
        pot = rng.random(n).tolist()
        bad += run_min_exposure(g, active, src, pot).value != \
            centralized_min_exposure(g, active, src, pot)
    print("mismatching runs:", bad, "of 100")


def section_census_scaling():
    print("== size census, complex zone, n = 2^10 .. 2^20, seeds 1 and 2 ==")
    ns = [2 ** k for k in range(10, 21, 2)]
    for construction in ("adaptive", "uniform"):
        means = []
        for n in ns:
            s = Scenario(n=n, seed=1, zone_kind="complex",
                         skeleton=construction, epsilon=1 / 6)
            t0 = time.perf_counter()
            census = size_census(s, 2)
            ms = (time.perf_counter() - t0) * 1e3 / 2
            means.append(census["mean"])
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            fractions = ", ".join(f"{f:.4f}" for f in census["fractions"])
            print(f"{construction} n=2^{n.bit_length() - 1}: sizes "
                  f"{census['sizes']} fractions [{fractions}] "
                  f"{ms:.0f} ms per world, peak RSS so far {peak:.0f} MB")
        logs = np.log(ns), np.log(means)
        local = np.diff(logs[1]) / np.diff(logs[0])
        print(f"{construction} log-log slope {np.polyfit(*logs, 1)[0]:.3f}; "
              "per step " + " ".join(f"{x:.3f}" for x in local))


def one_off(build) -> str:
    """Time build() once, with its tracemalloc peak and the process's peak
    RSS after it.  numpy reports its arrays to tracemalloc; arrays that
    scipy allocates in C++ (the k-d tree's pairs) escape it."""
    tracemalloc.start()
    t0 = time.perf_counter()
    build()
    seconds = time.perf_counter() - t0
    traced = tracemalloc.get_traced_memory()[1] / 2**20
    tracemalloc.stop()
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return (f"{seconds * 1e3:.1f} ms, traced peak {traced:.1f} MB, "
            f"peak RSS {rss:.0f} MB")


def section_query_scaling():
    print("== per-query search cost, path-region construction, "
          "n = 2^14, 2^16, 2^18, 20 snapped queries ==")
    # complex zone, adaptive skeleton, default width; each figure is the
    # median of three calls per query, averaged over the queries.  The
    # one-off builds run first, in a world whose graph is not yet built.
    def per_query_ms(fn, pairs):
        runs = []
        for a, b in pairs:
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn(a, b)
                times.append(time.perf_counter() - t0)
            runs.append(sorted(times)[1])
        return float(np.mean(runs)) * 1e3

    for k in (14, 16, 18):
        s = Scenario(n=2 ** k, seed=1, zone_kind="complex",
                     skeleton="adaptive", queries=20, query_seed=2,
                     metrics=("path",))
        world = build_world(s)
        g = world.graph
        print(f"n=2^{k}: comm graph {one_off(lambda: g.indices)}; "
              f"oracle graph {one_off(lambda: world.oracle)}; "
              f"labels {one_off(lambda: world.oracle.component_sizes)}; "
              f"neighbour table "
              f"{one_off(lambda: world.oracle.neighbor_table)}, "
              f"{world.oracle.neighbor_table.nbytes / 2**20:.1f} MB "
              f"{world.oracle.neighbor_table.dtype}")
        pairs = sample_queries(world)
        search, oracle = world.skeleton.search, world.oracle
        component = np.mean([oracle.component_sizes[oracle.index(a)]
                             for a, _ in pairs])
        flood = per_query_ms(lambda a, b: run_bfs_flood(g, search, a), pairs)
        # parents are derived on first read: the same flood with one read
        read = per_query_ms(
            lambda a, b: run_bfs_flood(g, search, a).parents(), pairs)
        hops = per_query_ms(
            lambda a, b: centralized_bfs(g, oracle, a, target=b), pairs)
        # the full table, which the oracle-equivalence gate reads
        table = per_query_ms(lambda a, b: centralized_bfs(g, oracle, a),
                             pairs)
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        print(f"n=2^{k}: awake {world.skeleton.size}, skeleton flood "
              f"{flood:.3f} ms with parents unread and {read:.3f} ms with "
              f"`parents()` read, hop oracle {hops:.3f} ms, full hop table "
              f"{table:.3f} ms per query; oracle component (a full flood's "
              f"charge) {component:.0f} nodes; peak RSS so far "
              f"{peak:.0f} MB")
        # far pairs: the snapped pairs lie a few hops apart, these do not
        far = np.random.default_rng(2).choice(np.flatnonzero(world.active),
                                              (10, 2), replace=False)
        far = [(int(a), int(b)) for a, b in far]
        apart = [centralized_bfs(g, oracle, a, target=b) for a, b in far]
        hops = per_query_ms(
            lambda a, b: centralized_bfs(g, oracle, a, target=b), far)
        table = per_query_ms(lambda a, b: centralized_bfs(g, oracle, a),
                             far)
        print(f"n=2^{k}: 10 out-of-zone pairs, median {np.median(apart):g} "
              f"hops apart: hop oracle {hops:.3f} ms, full hop table "
              f"{table:.3f} ms per query")
        del world, g, search, oracle

    print("== per-query exposure search cost, exposure-points construction, "
          "n = 2^14, 2^16, 20 snapped queries ==")
    # 8 point dangers (danger seed 5), adaptive + Voronoi skeleton; the
    # oracle is capped at the skeleton's answer, as run_query caps it
    for k in (14, 16):
        s = Scenario(n=2 ** k, seed=1, zone_kind="points", danger_count=8,
                     danger_seed=5, beta=2.0, clamp_radius=1.0,
                     skeleton="adaptive", voronoi=True, queries=20,
                     query_seed=2, metrics=("exposure",))
        world = build_world(s)
        pairs = sample_queries(world)
        g, search, oracle = world.graph, world.skeleton.search, world.oracle
        pot = world.potentials
        weights = one_off(lambda: oracle_weights(oracle, pot))
        print(f"n=2^{k}: exposure oracle weights {weights}, "
              f"{oracle_weights(oracle, pot)[1].data.nbytes / 2**20:.1f} MB")
        runs = [run_min_exposure(g, search, a, pot) for a, _ in pairs]
        caps = {(a, b): run.value_at(b) * (1 + 1e-9) + 1e-9
                for (a, b), run in zip(pairs, runs)}
        flood = per_query_ms(
            lambda a, b: run_min_exposure(g, search, a, pot), pairs)
        # parents are derived on first read: the same flood with one read
        read = per_query_ms(
            lambda a, b: run_min_exposure(g, search, a, pot).parents(), pairs)
        best = per_query_ms(lambda a, b: centralized_min_exposure(
            g, oracle, a, pot, target=b, limit=caps[a, b]), pairs)
        # a writable array's weights are gathered on every call
        writable = pot.copy()
        gathered = per_query_ms(lambda a, b: centralized_min_exposure(
            g, oracle, a, writable, target=b, limit=caps[a, b]), pairs)
        rounds = np.mean([run.rounds for run in runs])
        packets = np.mean([run.total_packets for run in runs])
        print(f"n=2^{k}: awake {world.skeleton.size}, exposure flood "
              f"{flood:.3f} ms with parents unread and {read:.3f} ms with "
              f"`parents()` read, {rounds:.1f} rounds and {packets:.0f} "
              f"packets, exposure oracle {best:.3f} ms with the weights "
              f"kept and {gathered:.3f} ms gathered per call, per query")
        del world, g, search, oracle, pot, writable, runs


SECTIONS = {
    "census": section_census,
    "census-scaling": section_census_scaling,
    "grid": section_grid,
    "voronoi": section_voronoi,
    "quadtree": section_quadtree,
    "retire": section_retire,
    "attach": section_attach,
    "traces": section_traces,
    "sizes": section_sizes,
    "slope": section_slope,
    "stretch": section_stretch,
    "exposure": section_exposure,
    "decay": section_decay,
    "parity": section_parity,
    "flood": section_flood,
    "oracles": section_oracles,
    "query-scaling": section_query_scaling,
}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--section", action="append", choices=sorted(SECTIONS),
                    help="run only the named section (repeatable)")
    args = ap.parse_args()
    for name in args.section or list(SECTIONS):
        SECTIONS[name]()
        print()


if __name__ == "__main__":
    main()
