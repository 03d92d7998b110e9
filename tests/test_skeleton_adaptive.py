"""Quadtree skeleton tests: refinement, retirement, Voronoi streets.

Street lengths are recounted from unit segments, the retirement pass is
compared against the direct construction, and the detected Voronoi band
is checked against the exact point-to-bisector distance of its two
nearest danger sites.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from reference_oracles import clusters_at_level, reference_adaptive_awake, \
    reference_leaf_at, reference_quadtree
from skeleton_nav.adaptive import (
    QuadCell,
    build_adaptive_skeleton,
    build_quadtree,
    detect_voronoi_nodes,
    embed_voronoi_streets,
    rasterize_region,
    simulate_cluster_retirement,
)
from skeleton_nav.danger import DangerZone, PotentialModel, perimeter_length, \
    zone_node_mask
from skeleton_nav.distsim import run_potential_phase
from skeleton_nav.field import generate_field
from skeleton_nav.harness import Scenario, build_world, fixture_zone, \
    run_scenario
from skeleton_nav.skeleton import Provenance, default_street_width

UNIT_ZONE = DangerZone.region([(1, 1), (2, 1), (2, 2), (1, 2)])


def unit_segments(tree):
    """Every leaf edge cut into unit pieces; the set dedups shared edges."""
    segs = set()
    for leaf in tree.leaves:
        s = leaf.size
        for k in range(s):
            segs.add(("v", leaf.x0, leaf.y0 + k))
            segs.add(("v", leaf.x0 + s, leaf.y0 + k))
            segs.add(("h", leaf.x0 + k, leaf.y0))
            segs.add(("h", leaf.x0 + k, leaf.y0 + s))
    return segs


def test_rasterize_unit_square():
    inside = rasterize_region(UNIT_ZONE, 4)
    expect = np.zeros((4, 4), dtype=bool)
    expect[1, 1] = True
    assert np.array_equal(inside, expect)


def test_rasterize_covers_tilted_boundary():
    tri = DangerZone.region([(0.2, 0.2), (2.8, 0.4), (1.5, 2.6)])
    inside = rasterize_region(tri, 4)
    verts = tri.vertices
    for i in range(3):
        a = verts[i]
        b = verts[(i + 1) % 3]
        for t in np.linspace(0.001, 0.999, 200):
            x, y = a + t * (b - a)
            assert inside[int(x), int(y)], f"boundary point ({x}, {y}) missed"
    assert not inside[3, 3]
    assert not inside[0, 3]


def test_no_zone_gives_single_root_leaf():
    tree = build_quadtree([], 32.0)
    assert tree.side == 32
    assert tree.levels == 5
    assert tree.leaves == (QuadCell(0, 0, 5),)
    assert not any(c.any() for c in tree.crossed)
    assert tree.street_length() == 4 * 32


def test_side_pads_to_power_of_two():
    assert build_quadtree([], 20.5).side == 32
    assert build_quadtree([], 64.0).side == 64


def test_tree_covers_a_field_whose_side_rounds_down():
    # n = 1056: the field is 32.5 wide, and a tree 32 wide would leave the
    # sensors beyond it outside every leaf
    side = generate_field(1056, 3.0, 0).side
    assert round(side) == 32
    assert build_quadtree([], side).side >= side


def test_unit_zone_in_4x4_field():
    tree = build_quadtree(UNIT_ZONE, 4.0)
    # three level-1 cells touch the square and split; the fourth only
    # meets it at the corner point (2, 2) and stays whole
    assert len(tree.leaves) == 13
    assert all(leaf.size == 2 ** leaf.level for leaf in tree.leaves)
    whole = [leaf for leaf in tree.leaves if leaf.level == 1]
    assert len(whole) == 1
    assert (whole[0].x0, whole[0].y0) == (2, 2)
    assert tree.street_length() == 36.0
    assert len(unit_segments(tree)) == 36


def test_leaf_invariants_and_tiling():
    for zone in (UNIT_ZONE, fixture_zone("simple").zone,
                 fixture_zone("complex").zone):
        side = 4.0 if zone is UNIT_ZONE else 32.0
        tree = build_quadtree(zone, side)
        assert sum(leaf.size ** 2 for leaf in tree.leaves) == tree.side ** 2
        for leaf in tree.leaves:
            k, i, j = leaf.level, leaf.x0 >> leaf.level, leaf.y0 >> leaf.level
            assert (i << k, j << k) == (leaf.x0, leaf.y0)
            # only unit cells may still touch the boundary, and every
            # leaf but the root has a crossed, hence split, parent
            assert k == 0 or not tree.crossed[k][i, j]
            assert k == tree.levels or tree.crossed[k + 1][i // 2, j // 2]


def test_street_length_matches_unit_segments():
    for name in ("simple", "complex"):
        tree = build_quadtree(fixture_zone(name).zone, 32.0)
        assert tree.street_length() == len(unit_segments(tree))


def test_crossed_cells_thin_out_per_level():
    # at level k the boundary can touch at most ~p / 2^k cells (times a
    # small constant): the refinement stays linear in the perimeter
    for name, leaves_expected in (("simple", 292), ("complex", 382)):
        zone = fixture_zone(name).zone
        tree = build_quadtree(zone, 32.0)
        assert len(tree.leaves) == leaves_expected
        p = perimeter_length(zone)
        # crossing grows going up, so every crossed cell is in the tree
        counts = {k: int(c.sum()) for k, c in enumerate(tree.crossed)}
        for k, cnt in counts.items():
            assert cnt <= 4 * p / 2 ** k, f"{name} level {k}: {cnt}"


def test_leaf_at_and_enclosing_cell():
    tree = build_quadtree(fixture_zone("simple").zone, 32.0)
    rng = np.random.default_rng(9)
    for x, y in rng.uniform(0.0, 31.99, size=(100, 2)):
        leaf = tree.leaf_at(float(x), float(y))
        assert leaf in tree.leaves
        assert leaf.x0 <= x < leaf.x0 + leaf.size
        assert leaf.y0 <= y < leaf.y0 + leaf.size
        assert tree.enclosing_cell(float(x), float(y)) == \
            (leaf.x0, leaf.y0, leaf.x0 + leaf.size, leaf.y0 + leaf.size)
    # a point on an internal edge goes to the upper cell, and points
    # beyond the field clamp to it
    t44 = build_quadtree(UNIT_ZONE, 4.0)
    assert t44.leaf_at(2.0, 0.5).x0 == 2
    assert t44.leaf_at(99.0, 99.0) == t44.leaf_at(3.99, 3.99)


@pytest.mark.parametrize("n, name", ((1024, "simple"), (1056, "complex")))
def test_leaf_cells_equals_tree_walk_on_edges(n, name):
    zone = fixture_zone(name).zone
    side = math.sqrt(n)
    tree, ref = build_quadtree(zone, side), reference_quadtree(zone, side)
    top = tree.side
    assert (top > side) == (n == 1056)  # n = 1056: the tree overhangs
    ticks = np.arange(top + 1.0)
    # integer edges, cell middles, just below the tree's edge, the field's
    # side, points past the tree and negative points
    vals = np.concatenate((ticks, ticks + 0.5, [
        top - 1e-9, np.nextafter(top, 0.0), side, side - 1e-9, top + 1e-9,
        top + 0.5, 3.0 * top, -1e-9, -0.5, -40.0]))
    x, y = (a.ravel() for a in np.meshgrid(vals, vals))
    got = np.column_stack(tree.leaf_cells(x, y))
    expect = [(leaf.x0, leaf.y0, leaf.size) for leaf in
              (reference_leaf_at(ref, a, b)
               for a, b in zip(x.tolist(), y.tolist()))]
    assert np.array_equal(got, expect)


def test_second_zone_only_refines():
    simple = fixture_zone("simple").zone
    extra = DangerZone.region([(2, 2), (5, 2), (5, 5), (2, 5)])
    single = build_quadtree(simple, 32.0)
    combined = build_quadtree([simple, extra], 32.0)
    assert combined.street_length() >= single.street_length()
    for leaf in combined.leaves:
        cx = leaf.x0 + leaf.size / 2.0
        cy = leaf.y0 + leaf.size / 2.0
        host = single.leaf_at(cx, cy)
        assert host.level >= leaf.level
        assert host.x0 <= leaf.x0 and host.y0 <= leaf.y0
        assert host.x0 + host.size >= leaf.x0 + leaf.size


def test_no_zone_skeleton_is_the_field_border(graph_cache):
    g = graph_cache(1024, 3.0, 3)
    sk = build_adaptive_skeleton(g, None)
    pos = g.field.positions
    margin = np.minimum(np.minimum(pos[:, 0], 32.0 - pos[:, 0]),
                        np.minimum(pos[:, 1], 32.0 - pos[:, 1]))
    assert np.array_equal(sk.awake, margin <= 1.0 / 3.0)
    assert (sk.tags[sk.awake] == Provenance.QUADTREE_EDGE.tag).all()
    assert sk.construction == "adaptive"
    explicit = build_adaptive_skeleton(g, None, width=2.0 / 3.0)
    assert np.array_equal(explicit.awake, sk.awake)


@pytest.mark.parametrize("n", (1056, 1090))
def test_field_border_is_a_street_where_the_tree_overhangs(n):
    world = build_world(Scenario(n=n, seed=3, zone_kind="complex",
                                 skeleton="adaptive"))
    fld, sk = world.field, world.skeleton
    assert sk.geometry.side > fld.side
    width = default_street_width(fld.radio_range)
    x, y = fld.positions.T
    near = world.active & ((fld.side - x <= width / 2)
                           | (fld.side - y <= width / 2))
    assert np.count_nonzero(near) > 10
    assert sk.awake[near].all()
    tree = reference_quadtree(world.zone, fld.side)
    assert np.array_equal(sk.awake, reference_adaptive_awake(
        world.graph, world.zone, tree, width))


def test_fixture_skeleton_wakes_leaf_margins(graph_cache):
    g = graph_cache(1024, 3.0, 3)
    zone = fixture_zone("simple").zone
    sk = build_adaptive_skeleton(g, zone)
    mask = zone_node_mask(zone, g.field.positions)
    assert np.array_equal(sk.blocked, mask)
    assert not (sk.awake & sk.blocked).any()
    tree = reference_quadtree(zone, g.field.side)
    assert np.array_equal(sk.awake,
                          reference_adaptive_awake(g, zone, tree, 2.0 / 3.0))


def test_cluster_membership(graph_cache):
    g = graph_cache(256, 3.0, 3)
    table = clusters_at_level(g, None, 2, 16, 2.0)
    assert table
    seen_in = {}
    for (ix, iy), members in table.items():
        assert 0 <= ix < 4 and 0 <= iy < 4
        assert members == tuple(sorted(members))
        for v in members:
            seen_in.setdefault(v, []).append((ix, iy))
    # near a shared cell corner a sensor belongs to several clusters
    assert any(len(cells) >= 2 for cells in seen_in.values())


def test_retirement_matches_direct_construction(graph_cache):
    square = DangerZone.region([(4, 4), (10, 4), (10, 10), (4, 10)])
    g = graph_cache(256, 3.0, 4)
    ret = simulate_cluster_retirement(g, square)
    direct = build_adaptive_skeleton(g, square)
    assert np.array_equal(ret.awake, direct.awake)
    g1 = graph_cache(1024, 3.0, 3)
    zone = fixture_zone("simple").zone
    assert np.array_equal(simulate_cluster_retirement(g1, zone).awake,
                          build_adaptive_skeleton(g1, zone).awake)


def test_retirement_message_accounting_without_zone(graph_cache):
    g = graph_cache(256, 3.0, 4)
    ret = simulate_cluster_retirement(g, None)
    # danger-free everywhere: every cluster walks its boundary once and
    # every non-root cluster notifies its parent once
    expect = 0
    for level in range(5):
        table = clusters_at_level(g, None, level, 16, 2.0 / 3.0)
        expect += sum(map(len, table.values()))
        if level < 4:
            expect += len(table)
    assert ret.messages == expect
    root = clusters_at_level(g, None, 4, 16, 2.0 / 3.0)[(0, 0)]
    assert np.flatnonzero(ret.awake).tolist() == list(root)


def voronoi_band(g, sites):
    """The band read off a potential phase over every node of g."""
    return detect_voronoi_nodes(
        run_potential_phase(g, None, PotentialModel(sources=sites)))


def test_voronoi_needs_two_sources(graph_cache):
    g = graph_cache(1024, 3.0, 3)
    with pytest.raises(ValueError):
        voronoi_band(g, [(5.0, 5.0)])


def test_voronoi_band_splits_symmetric_sources(graph_cache):
    g = graph_cache(1024, 3.0, 3)
    band = voronoi_band(g, [(8.0, 16.0), (24.0, 16.0)])
    assert not band.degenerate
    assert 150 <= len(band.nodes) <= 230  # measured 190
    assert np.array_equal(band.nodes, np.sort(band.nodes))
    xs = g.field.positions[band.nodes, 0]
    # the band hugs the mirror line x=16 to within about a hop
    assert float(np.mean(np.abs(xs - 16.0))) <= 2.0
    assert float(np.max(np.abs(xs - 16.0))) <= 6.0


def test_voronoi_band_tracks_three_site_bisectors(graph_cache):
    g = graph_cache(1024, 3.0, 3)
    sites = np.array([(6.0, 6.0), (26.0, 8.0), (16.0, 26.0)])
    band = voronoi_band(g, sites)
    assert not band.degenerate
    gaps = []
    for v in band.nodes:
        p = g.field.positions[v]
        d = np.hypot(*(sites - p).T)
        i, j = np.argsort(d)[:2]
        ab = float(np.hypot(*(sites[i] - sites[j])))
        # exact distance from p to the bisector of its two nearest sites
        gaps.append(abs(d[i] ** 2 - d[j] ** 2) / (2 * ab))
    assert max(gaps) <= 6.0   # within two hops of a true Voronoi edge
    assert float(np.mean(gaps)) <= 2.0


def test_collocated_sources_flag_degenerate(graph_cache):
    g = graph_cache(1024, 3.0, 3)
    band = voronoi_band(g, [(10.0, 10.0), (10.0, 10.0)])
    assert band.degenerate
    assert len(band.nodes) == g.n


def test_embed_voronoi_streets(graph_cache):
    from skeleton_nav.adaptive import VoronoiBand

    g = graph_cache(1024, 3.0, 3)
    sk = build_adaptive_skeleton(g, None)
    empty = VoronoiBand(nodes=np.array([], dtype=np.int64), degenerate=False)
    assert embed_voronoi_streets(sk, empty) is sk
    extra = np.flatnonzero(~sk.awake)[:10]
    grown = embed_voronoi_streets(sk, VoronoiBand(nodes=extra,
                                                  degenerate=False))
    assert grown.size == sk.size + 10
    assert all(grown.provenance[v] is Provenance.VORONOI_EDGE
               for v in extra.tolist())


def test_voronoi_streets_carry_low_exposure_paths():
    s = Scenario(n=1024, seed=3, zone_kind="points", danger_count=3,
                 danger_seed=7, skeleton="adaptive", voronoi=True,
                 metrics=("exposure",), queries=10, query_seed=1)
    rows = run_scenario(s)
    agg = rows[-1]
    assert agg.excluded == 0
    # measured 1.23 / 2.16 at these seeds; one short pair detours close
    # past a source, which doubles a small absolute exposure
    assert agg.exposure_ratio_mean <= 1.4
    assert agg.exposure_ratio_max <= 2.5
