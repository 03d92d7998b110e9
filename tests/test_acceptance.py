"""End-to-end acceptance gates for the whole package.

Each test checks one release criterion with pinned tolerances and prints a
single PASS/FAIL line with the measured numbers (run pytest with -s or -rA
to see the lines for passing tests).  Graphs are memoized per (n, seed)
because several criteria sweep the same fields.
"""

from __future__ import annotations

import math
from functools import lru_cache
from pathlib import Path

import numpy as np

from skeleton_nav.adaptive import build_adaptive_skeleton, build_quadtree
from skeleton_nav.danger import (
    PotentialModel,
    path_exposure,
    perimeter_length,
    points_in_region,
    well_behaved_check,
    zone_node_mask,
)
from skeleton_nav.distsim import (
    centralized_bfs,
    centralized_min_exposure,
    run_bfs_flood,
    run_min_exposure,
)
from skeleton_nav.field import build_comm_graph, generate_field
from skeleton_nav.harness import (
    Scenario,
    build_world,
    csv_text,
    fixture_zone,
    load_scenario,
    run_query,
    run_scenario,
    sample_queries,
)
from skeleton_nav.uniform import UniformStreetConfig, build_uniform_skeleton

DATA = Path(__file__).parent / "data"
INF = math.inf


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    assert ok, f"{label}: {detail}"


@lru_cache(maxsize=None)
def graph(n: int, seed: int):
    return build_comm_graph(generate_field(n, 3.0, seed))


def test_flood_transmissions_stay_within_packet_budget():
    # every flooded search: at most one transmission per node, and the
    # packet total equals the number of nodes the search reached
    rng = np.random.default_rng(0)
    checked = 0
    for k in range(200):
        n = 16384 if k == 0 else int(round(2.0 ** rng.uniform(6.0, 14.0)))
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
        assert all(t <= 1 for t in run.transmissions), f"instance {k}"
        assert run.total_packets == reached <= n, f"instance {k}"
        checked += 1
    _verdict("packet-budget", checked == 200,
             f"{checked} instances, tx<=1 per node, total==reached")


def test_distributed_searches_equal_centralized_oracles():
    rng = np.random.default_rng(1)
    for k in range(50):
        n = int(rng.integers(64, 1025))
        g = build_comm_graph(generate_field(n, 3.0, 5000 + k))
        keep = rng.random(n) < 0.75
        keep[0] = True
        active = frozenset(np.flatnonzero(keep).tolist())
        src = int(rng.choice(sorted(active)))
        flood = run_bfs_flood(g, active, src)
        assert flood.value == centralized_bfs(g, active, src), f"bfs {k}"
        pot = rng.random(n).tolist()
        exp = run_min_exposure(g, active, src, pot)
        assert exp.value == centralized_min_exposure(g, active, src, pot), \
            f"exposure {k}"
    _verdict("oracle-equivalence",
             True, "50 BFS + 50 min-exposure runs, exact equality")


def test_skeleton_sizes_land_in_reported_bands():
    zone = fixture_zone("simple").zone
    seeds = range(20)

    small = [build_adaptive_skeleton(graph(1024, s), zone).size
             for s in seeds]
    large = [build_adaptive_skeleton(graph(16384, s), zone).size
             for s in seeds]
    cfg = UniformStreetConfig(epsilon=1 / 6)
    grid = [build_uniform_skeleton(graph(4096, s), zone, cfg).size
            for s in seeds]

    m_small = float(np.mean(small))
    m_large = float(np.mean(large))
    m_grid = float(np.mean(grid))
    ok = (264 <= m_small <= 490 and 461 <= m_large <= 857
          and 337 <= m_grid <= 563)
    _verdict("skeleton-sizes", ok,
             f"adaptive n=1024 {m_small:.0f} in [264,490], "
             f"n=16384 {m_large:.0f} in [461,857], "
             f"uniform n=4096 {m_grid:.0f} in [337,563]")


def test_uniform_size_grows_with_the_expected_exponent():
    cfg = UniformStreetConfig(epsilon=0.05)
    means = []
    ns = (1024, 4096, 16384)
    for n in ns:
        sizes = [build_uniform_skeleton(graph(n, s), None, cfg).size
                 for s in range(20)]
        means.append(float(np.mean(sizes)))
    slope = float(np.polyfit(np.log(ns), np.log(means), 1)[0])
    ok = abs(slope - 0.55) <= 0.12
    _verdict("size-scaling", ok,
             f"log-log slope {slope:.3f} within 0.55 +/- 0.12")


def test_region_detours_stay_within_stretch_bounds():
    results = []
    for zone_kind in ("simple", "complex"):
        c_measured = well_behaved_check(fixture_zone(zone_kind).zone,
                                        [2.0, 4.0, 8.0, 16.0, 32.0])
        for kind in ("uniform", "adaptive"):
            s = Scenario(n=4096, seed=5, zone_kind=zone_kind, skeleton=kind,
                         epsilon=1 / 6, width=5.0, queries=200,
                         query_seed=11, metrics=("path",))
            world = build_world(s)
            rows = [run_query(world, i, a, b)
                    for i, (a, b) in enumerate(sample_queries(world))]
            ratios = [r.path_ratio for r in rows if not r.flagged]
            assert len(ratios) == 200, f"{zone_kind}/{kind}: dropped pairs"
            assert all(r.reachable_sg for r in rows), f"{zone_kind}/{kind}"
            mean = float(np.mean(ratios))
            worst = max(ratios)
            bound = 2.0 * (1.0 + c_measured) + 0.2 if kind == "uniform" \
                else 2.2
            results.append((zone_kind, kind, mean, worst, bound))

    ok = all(mean <= 1.5 and worst <= bound
             for _, _, mean, worst, bound in results)
    detail = "; ".join(f"{z}/{k} mean {m:.3f} worst {w:.3f} (cap {b:.2f})"
                       for z, k, m, w, b in results)
    _verdict("path-stretch", ok, detail)


def test_exposure_stretch_small_and_skeletons_agree():
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
    mean_u = float(np.mean(pooled["uniform"]))
    mean_a = float(np.mean(pooled["adaptive"]))
    gap = abs(mean_u - mean_a)
    served = {k: len(v) for k, v in pooled.items()}
    ok = (excluded == 0 and served == {"uniform": 200, "adaptive": 200}
          and mean_u <= 2.0 and mean_a <= 2.0 and gap <= 0.15 * mean_a)
    _verdict("exposure-stretch", ok,
             f"uniform {mean_u:.3f}, adaptive {mean_a:.3f}, gap {gap:.3f} "
             f"<= {0.15 * mean_a:.3f}, served {served['uniform']}"
             f"+{served['adaptive']}/400, excluded {excluded}")


def test_straight_path_exposure_decay_slope():
    # walking a line at standoff D from a lone source, summed exposure
    # falls off as D^(1-beta)
    step = 0.25
    xs = np.arange(-600.0, 600.0 + step / 2, step)
    standoffs = (4.0, 8.0, 16.0, 32.0)
    errors = {}
    for beta in (1.5, 2.0, 3.0):
        model = PotentialModel(sources=np.array([[0.0, 0.0]]), beta=beta,
                               clamp_radius=1.0)
        sums = [path_exposure(model, [(x, d) for x in xs])
                for d in standoffs]
        slope = float(np.polyfit(np.log(standoffs), np.log(sums), 1)[0])
        errors[beta] = abs(slope - (1.0 - beta))
    ok = all(err <= 0.15 for err in errors.values())
    detail = ", ".join(f"beta {b:g}: |slope error| {e:.3f}"
                       for b, e in errors.items())
    _verdict("exposure-decay-slope", ok, detail)


def test_leaf_boundary_length_linear_in_perimeter():
    rows = []
    for name in ("simple", "complex"):
        zone = fixture_zone(name).zone
        p = perimeter_length(zone)
        for side in (32, 64, 128):
            length = build_quadtree(zone, float(side)).street_length()
            cap = 8.0 * p * math.log2(side)
            rows.append((name, side, length, cap))
    ok = all(length <= cap for _, _, length, cap in rows)
    detail = "; ".join(f"{n}@{s}: {l:.0f}<= {c:.0f}"
                       for n, s, l, c in rows)
    _verdict("street-length-law", ok, detail)


def test_zone_safety_and_reachability_parity():
    # no awake sensor inside any zone, and the skeleton reaches exactly
    # the street points the full active graph reaches
    g = graph(1024, 5)
    cfg = UniformStreetConfig(epsilon=1 / 6, width=5.0)
    inside_awake = 0
    skeletons = {}
    for name in ("simple", "complex"):
        zone = fixture_zone(name).zone
        for kind, sk in (("uniform", build_uniform_skeleton(g, zone, cfg)),
                         ("adaptive", build_adaptive_skeleton(g, zone,
                                                              width=5.0))):
            inside_awake += int(points_in_region(
                zone, g.field.positions[sk.awake]).sum())
            skeletons[(name, kind)] = sk

    mismatches = 0
    rng = np.random.default_rng(404)
    zone = fixture_zone("simple").zone
    active = ~zone_node_mask(zone, g.field.positions)
    for kind in ("uniform", "adaptive"):
        sk = skeletons[("simple", kind)]
        awake = np.flatnonzero(sk.awake)
        for _ in range(200):
            a, b = (int(v) for v in rng.choice(awake, size=2, replace=False))
            on_sk = run_bfs_flood(g, sk.awake, a).value[b] != INF
            on_full = centralized_bfs(g, active, a)[b] != INF
            mismatches += on_sk != on_full
    ok = inside_awake == 0 and mismatches == 0
    _verdict("safety-reachability", ok,
             f"{inside_awake} awake nodes in zones, "
             f"{mismatches}/400 reachability mismatches")


def test_golden_scenario_csv_reproduces_byte_identically():
    s = load_scenario(DATA / "golden.scenario")
    golden = (DATA / "golden.csv").read_text(encoding="ascii")
    first = csv_text(run_scenario(s))
    second = csv_text(run_scenario(s))
    ok = first == golden and second == golden
    _verdict("determinism", ok,
             f"two fresh runs, {len(golden)} bytes each, "
             f"{'identical to' if ok else 'diverged from'} the golden file")
