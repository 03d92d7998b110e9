"""Grid-street skeleton tests: strips, perimeter streets, pruning, attach.

Strip membership is recounted independently from raw positions, perimeter
streets against a multi-source BFS oracle, and pruned streets against the
plain hop distance between the street endpoints.
"""

from __future__ import annotations

import bisect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from skeleton_nav.danger import DangerZone, boundary_nodes, zone_node_mask
from skeleton_nav.distsim import run_bfs_flood
from skeleton_nav.field import node_mask
from skeleton_nav.harness import fixture_zone
from skeleton_nav.skeleton import (
    Provenance,
    SkeletonGraph,
    attach_offstreet_endpoints,
    default_street_width,
    tagged,
)
from skeleton_nav.uniform import (
    UniformStreetConfig,
    _near_line,
    build_perimeter_streets,
    build_uniform_skeleton,
    prune_street,
    street_line_positions,
)


def strip_recount(field, lines, half):
    """Independent strip membership mask: distance to the nearest line per
    axis."""
    lx = np.asarray(lines)
    nx = np.min(np.abs(field.positions[:, 0][:, None] - lx[None, :]), axis=1)
    ny = np.min(np.abs(field.positions[:, 1][:, None] - lx[None, :]), axis=1)
    return (nx <= half) | (ny <= half)


def ball_oracle(graph, base, mask, hops):
    """Multi-source BFS over out-of-zone nodes, `hops` levels past base."""
    seen = set(base)
    frontier = sorted(base)
    for _ in range(hops):
        nxt = []
        for u in frontier:
            for v in graph.adj[u]:
                if v not in seen and not mask[v]:
                    seen.add(v)
                    nxt.append(v)
        frontier = sorted(set(nxt))
    return seen


def test_separation_formula():
    cfg = UniformStreetConfig(epsilon=0.1)
    assert cfg.separation(4096) == pytest.approx(4096 ** 0.4, rel=1e-12)
    s, w = UniformStreetConfig(epsilon=1 / 6).validate(4096, 3.0)
    assert s == pytest.approx(16.0, rel=1e-12)
    assert w == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert default_street_width(3.0) == pytest.approx(2.0 / 3.0, rel=1e-12)


def test_config_validation_errors():
    with pytest.raises(ValueError):
        UniformStreetConfig(epsilon=0.0).validate(1024, 3.0)
    with pytest.raises(ValueError):
        UniformStreetConfig(epsilon=0.5).validate(1024, 3.0)
    with pytest.raises(ValueError):
        UniformStreetConfig(epsilon=0.1, width=0.0).validate(1024, 3.0)
    with pytest.raises(ValueError, match="shred"):
        UniformStreetConfig(epsilon=0.1, width=0.3).validate(1024, 3.0)
    with pytest.raises(ValueError):
        UniformStreetConfig(epsilon=0.1, shift=-1.0).validate(1024, 3.0)
    with pytest.raises(ValueError):
        UniformStreetConfig(epsilon=0.1, shift=1e9).validate(1024, 3.0)


def test_street_line_positions():
    assert street_line_positions(32.0, 8.0, 0.0) == [0.0, 8.0, 16.0, 24.0, 32.0]
    assert street_line_positions(32.0, 8.0, 3.0) == \
        [0.0, 3.0, 11.0, 19.0, 27.0, 32.0]
    # a separation wider than the field leaves just the borders
    assert street_line_positions(32.0, 40.0, 0.0) == [0.0, 32.0]
    # lines landing on the border within rounding noise collapse into it
    lines = street_line_positions(32.0, 8.0, 32.0 - 24.0 - 5e-10)
    assert len(lines) == len(set(round(p, 6) for p in lines))


def test_near_line_at_street_edges():
    # dyadic lines and half width: line +- half is exact, so it is on the
    # street, and one ulp farther out is off it
    lines, half = [0.0, 8.0, 16.0, 20.0], 0.5
    edge = np.array([p + d for p in lines for d in (-half, half)])
    out = np.where(edge > np.repeat(lines, 2), np.inf, -np.inf)
    assert _near_line(edge, lines, half).all()
    assert _near_line(np.nextafter(edge, -out), lines, half).all()
    assert not _near_line(np.nextafter(edge, out), lines, half).any()
    # negative coordinates and coordinates past the side clamp onto the
    # end bins and still take the exact test
    far = np.array([-0.25, -0.5, -0.5000001, -3.0, -1e9,
                    20.25, 20.5, 20.5000001, 23.0, 1e9])
    assert _near_line(far, lines, half).tolist() == \
        [True, True, False, False, False, True, True, False, False, False]
    # 4.5 - nextafter(2, 0) rounds to 2.5, so that coordinate is on the
    # street though its bin lies wholly below 4.5 - 2.5: the table's 1e-9
    # guard marks the bin
    c = np.nextafter(2.0, 0.0)
    assert abs(c - 4.5) == 2.5
    assert _near_line(np.array([c, 1.5]), [4.5, 9.0], 2.5).tolist() == \
        [True, False]
    # the end bins are always marked: a coordinate clamped onto bin 0 is
    # tested exactly even when no line reaches that bin
    assert _near_line(np.array([-3.25, -3.75, -0.25, 0.5]), [-3.0, 4.5, 9.0],
                      0.5).tolist() == [True, False, False, False]


# the last line sits a hair below an integer bin edge: the border merged
# into a lattice line there, or the border itself sits there; then a side
# that is no integer
@pytest.mark.parametrize("side, shift, last", (
    (32.0, 8.0 - 5e-10, 32.0 - 5e-10),
    (32.0 - 5e-10, 0.0, 32.0 - 5e-10),
    (32.496, 0.3, 32.496)))
@pytest.mark.parametrize("half", (1 / 3, 0.5, 0.75, 2.5))
def test_near_line_equals_distance_to_every_line(side, shift, last, half):
    lines = street_line_positions(side, 8.0, shift)
    assert abs(lines[-1] - last) < 1e-12
    marks = np.array([p + d for p in lines + [8.0, 16.0, side]
                      for d in (-half, 0.0, half)]
                     + [-half, side + half, side, math.ceil(side)])
    coord = np.concatenate((marks, np.nextafter(marks, np.inf),
                            np.nextafter(marks, -np.inf),
                            np.linspace(-2.0, side + 2.0, 4001)))
    expect = (np.abs(coord[:, None] - np.asarray(lines)) <= half).any(axis=1)
    got = _near_line(coord, lines, half)
    assert np.array_equal(got, expect)
    assert got.any() and not got.all()


def test_grid_strip_membership_recount(graph_cache):
    g = graph_cache(1024, 3.0, 2)
    cfg = UniformStreetConfig(epsilon=1 / 6)
    sk = build_uniform_skeleton(g, None, cfg)
    s, w = cfg.validate(1024, 3.0)
    lines = street_line_positions(g.field.side, s, 0.0)
    assert np.array_equal(sk.awake, strip_recount(g.field, lines, w / 2.0))
    assert (sk.tags[sk.awake] == Provenance.GRID_STREET.tag).all()
    assert sk.construction == "uniform"
    assert not sk.blocked.any()
    assert 120 <= sk.size <= 200  # measured 153 at this seed


def test_zone_blocks_and_perimeter_wakes(graph_cache):
    g = graph_cache(1024, 3.0, 2)
    zone = fixture_zone("simple").zone
    cfg = UniformStreetConfig(epsilon=1 / 6)
    sk = build_uniform_skeleton(g, zone, cfg)
    mask = zone_node_mask(zone, g.field.positions)
    assert np.array_equal(sk.blocked, mask)
    assert not (sk.awake & sk.blocked).any()

    s, w = cfg.validate(1024, 3.0)
    lines = street_line_positions(g.field.side, s, 0.0)
    grid = strip_recount(g.field, lines, w / 2.0) & ~sk.blocked
    perim = build_perimeter_streets(g, zone, w)
    assert np.array_equal(sk.awake, grid | (perim & ~sk.blocked))
    perim_tagged = sk.tags == Provenance.PERIMETER_STREET.tag
    assert np.array_equal(perim_tagged, perim & ~sk.blocked & ~grid)
    assert perim_tagged.any()  # the zone boundary is populated at n=1024


def test_perimeter_streets_against_ball_oracle(graph_cache):
    g = graph_cache(1024, 3.0, 2)
    zone = fixture_zone("simple").zone
    mask = zone_node_mask(zone, g.field.positions)
    base = boundary_nodes(g, zone)
    assert np.flatnonzero(build_perimeter_streets(g, zone, 0.0)).tolist() \
        == sorted(base)
    for w in (0.5, 2.0):
        got = build_perimeter_streets(g, zone, w)
        assert np.flatnonzero(got).tolist() == \
            sorted(ball_oracle(g, base, mask, math.ceil(w)))


def test_perimeter_streets_empty_without_boundary(graph_cache):
    g = graph_cache(256, 3.0, 3)
    off_field = DangerZone.region([(40, 40), (42, 40), (42, 42), (40, 42)])
    assert not build_perimeter_streets(g, off_field, 2.0).any()


def test_prune_street_finds_shortest_path(graph_cache):
    g = graph_cache(256, 3.0, 3)
    street = np.ones(g.n, dtype=bool)
    pruned, ok = prune_street(g, street, (7, 101))
    assert ok
    dist = run_bfs_flood(g, None, 7).value
    assert np.count_nonzero(pruned) == dist[101] + 1
    assert pruned[7] and pruned[101]
    # the kept nodes really form one path: go hop by hop from 7
    order = sorted(np.flatnonzero(pruned).tolist(), key=lambda v: dist[v])
    for a, b in zip(order, order[1:]):
        assert b in g.adj[a]


def test_prune_street_disconnected_and_bad_endpoints(graph_cache):
    g = graph_cache(256, 3.0, 3)
    far = max(range(g.n), key=lambda v: g.field.distance(0, v))
    assert far not in g.adj[0]
    street = node_mask(g.n, [0, far])
    same, ok = prune_street(g, street, (0, far))
    assert not ok
    assert np.array_equal(same, street)
    with pytest.raises(ValueError):
        prune_street(g, node_mask(g.n, [0, 1]), (0, 250))


def test_pruned_build_is_sparser(graph_cache):
    g = graph_cache(1024, 3.0, 2)
    zone = fixture_zone("simple").zone
    plain = build_uniform_skeleton(g, zone, UniformStreetConfig(epsilon=1 / 6))
    pruned = build_uniform_skeleton(
        g, zone, UniformStreetConfig(epsilon=1 / 6, prune=True))
    assert pruned.size < plain.size
    tags = lambda sk: sk.tags == Provenance.PERIMETER_STREET.tag  # noqa: E731
    # pruning thins grid streets only; perimeter streets always survive
    assert (tags(pruned) >= tags(plain)).all()
    assert tags(pruned).any()


def test_shifted_grids_decorrelate(graph_cache):
    g = graph_cache(4096, 3.0, 2)
    cfg = UniformStreetConfig(epsilon=1 / 6)
    s = cfg.separation(4096)
    base = build_uniform_skeleton(g, None, cfg).awake
    again = build_uniform_skeleton(g, None, replace(cfg, shift=0.0)).awake
    assert np.array_equal(again, base)
    shifted = build_uniform_skeleton(g, None, replace(cfg, shift=s / 2)).awake
    # measured overlap 0.285 at this seed: shifted grids share few sensors
    size = np.count_nonzero(base)
    assert np.count_nonzero(base & shifted) / size < 0.30
    union = base.copy()
    for frac in (0.25, 0.5, 0.75):
        union |= build_uniform_skeleton(g, None,
                                        replace(cfg, shift=frac * s)).awake
    assert np.count_nonzero(union) >= 4.0 * size  # measured ratio 4.06


def test_enclosing_cell_brackets_the_point(graph_cache):
    g = graph_cache(1024, 3.0, 2)
    sk = build_uniform_skeleton(g, None, UniformStreetConfig(epsilon=1 / 6))
    lines = list(sk.geometry.lines)
    rng = np.random.default_rng(8)
    for x, y in rng.uniform(0.0, 31.99, size=(50, 2)):
        x0, y0, x1, y1 = sk.geometry.enclosing_cell(float(x), float(y))
        ix = bisect.bisect_right(lines, x)
        iy = bisect.bisect_right(lines, y)
        assert (x0, x1) == (lines[ix - 1], lines[ix])
        assert (y0, y1) == (lines[iy - 1], lines[iy])
    # a point exactly on a line belongs to the cell above it
    x0, _, x1, _ = sk.geometry.enclosing_cell(lines[1], 1.0)
    assert (x0, x1) == (lines[1], lines[2])


def test_skeleton_graph_basics(graph_cache):
    g = graph_cache(256, 3.0, 3)
    blocked = node_mask(g.n, [9])
    sk = SkeletonGraph(graph=g, tags=tagged(node_mask(g.n, [1, 2, 3]),
                                            Provenance.GRID_STREET),
                       blocked=blocked, construction="uniform")
    assert sk.size == 3
    assert sk.fraction == 3 / 256
    with pytest.raises(ValueError):
        SkeletonGraph(graph=g, tags=tagged(blocked, Provenance.GRID_STREET),
                      blocked=blocked, construction="uniform")


def test_with_connectors_respects_blocked(graph_cache):
    g = graph_cache(256, 3.0, 3)
    sk = SkeletonGraph(graph=g, tags=tagged(node_mask(g.n, [1]),
                                            Provenance.GRID_STREET),
                       blocked=node_mask(g.n, [9]), construction="uniform")
    assert sk.with_connectors([]) is sk
    assert sk.with_connectors([1, 9]) is sk  # nothing new to wake
    grown = sk.with_connectors([4, 9])
    assert np.flatnonzero(grown.awake).tolist() == [1, 4]
    assert grown.provenance[4] is Provenance.ENDPOINT


def test_attach_on_street_is_free(graph_cache):
    g = graph_cache(1024, 3.0, 2)
    sk = build_uniform_skeleton(g, None, UniformStreetConfig(epsilon=1 / 6))
    a, b = np.flatnonzero(sk.awake)[:2].tolist()
    res = attach_offstreet_endpoints(g, sk, a, b)
    assert res.skeleton is sk
    assert res.packets == 0
    assert res.src_attached and res.dst_attached


def test_attach_one_hop_source(graph_cache):
    g = graph_cache(1024, 3.0, 2)
    sk = build_uniform_skeleton(g, None, UniformStreetConfig(epsilon=1 / 6))
    src = next(v for v in range(g.n)
               if not sk.awake[v] and sk.awake[list(g.adj[v])].any())
    dst = int(np.flatnonzero(sk.awake)[0])
    res = attach_offstreet_endpoints(g, sk, src, dst)
    assert res.src_attached and res.dst_attached
    assert np.array_equal(res.skeleton.awake, sk.awake | node_mask(g.n, [src]))
    assert res.skeleton.provenance[src] is Provenance.ENDPOINT
    # one ring of lifetime 1: the source plus every neighbor it woke
    assert res.packets == 1 + len(g.adj[src])


def test_attach_floods_destination_cell(graph_cache):
    g = graph_cache(1024, 3.0, 2)
    sk = build_uniform_skeleton(g, None, UniformStreetConfig(epsilon=1 / 6))
    src = int(np.flatnonzero(sk.awake)[0])
    dst = int(np.flatnonzero(~sk.awake)[0])
    res = attach_offstreet_endpoints(g, sk, src, dst)
    assert res.dst_attached
    x0, y0, x1, y1 = sk.geometry.enclosing_cell(*g.field.position(dst))
    pos = g.field.positions
    cell = {i for i in range(g.n)
            if x0 <= pos[i, 0] <= x1 and y0 <= pos[i, 1] <= y1}
    assert dst in cell
    assert res.packets == len(cell)
    assert np.array_equal(res.skeleton.awake, sk.awake | node_mask(g.n, cell))


def test_attach_rejects_a_source_in_the_zone(graph_cache):
    g = graph_cache(1024, 3.0, 5)
    sk = build_uniform_skeleton(g, fixture_zone("simple").zone,
                                UniformStreetConfig(epsilon=1 / 6, width=2.5))
    inside = int(np.flatnonzero(sk.blocked)[0])
    with pytest.raises(ValueError):
        attach_offstreet_endpoints(g, sk, inside,
                                   int(np.flatnonzero(sk.awake)[0]))


def test_attach_rejects_a_destination_outside_the_nodes(graph_cache):
    # a negative id would otherwise flood the last node's street cell
    g = graph_cache(1024, 3.0, 3)
    sk = build_uniform_skeleton(g, fixture_zone("simple").zone,
                                UniformStreetConfig(epsilon=1 / 6))
    for dst in (-1, g.n):
        with pytest.raises(ValueError, match="not a node"):
            attach_offstreet_endpoints(g, sk, int(np.flatnonzero(sk.awake)[0]),
                                       dst)


def test_on_street_attach_allocates_nothing(graph_cache):
    # both endpoints awake: no n-length mask is built, and the skeleton
    # itself comes back
    g = graph_cache(4096, 3.0, 1)
    sk = build_uniform_skeleton(g, fixture_zone("complex").zone,
                                UniformStreetConfig(epsilon=1 / 6))
    src, dst = np.flatnonzero(sk.awake)[[0, -1]].tolist()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        res = attach_offstreet_endpoints(g, sk, src, dst)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < g.n
    assert res.skeleton is sk
    assert (res.packets, res.src_attached, res.dst_attached) == (0, True, True)


def test_attach_preserves_reachability(graph_cache):
    # arbitrary active endpoints, simple zone: after attachment the skeleton
    # reaches the destination whenever the full active graph does.  Width
    # 2.5 leaves some active nodes asleep, so some endpoints need attaching,
    # and keeps the streets in one piece, which reachability relies on.
    g = graph_cache(1024, 3.0, 5)
    zone = fixture_zone("simple").zone
    sk = build_uniform_skeleton(
        g, zone, UniformStreetConfig(epsilon=1 / 6, width=2.5))
    _, labels = connected_components(sk.search.matrix, directed=False)
    assert np.unique(labels).size == 1  # the matrix holds awake nodes only
    active = np.flatnonzero(~sk.blocked)
    assert sk.size < active.size
    rng = np.random.default_rng(123)
    attached = 0
    for _ in range(50):
        a, b = (int(v) for v in rng.choice(active, size=2, replace=False))
        res = attach_offstreet_endpoints(g, sk, a, b)
        attached += res.packets > 0
        dist_sk = run_bfs_flood(g, res.skeleton.awake, a).value_at(b)
        dist_full = run_bfs_flood(g, ~sk.blocked, a).value_at(b)
        assert (dist_sk != math.inf) == (dist_full != math.inf)
    assert attached > 0
