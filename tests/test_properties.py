"""Property tests: the array searches against the pure-Python references.

Small random fields, including short radio ranges that split the graph into
isolated components, random active masks, and potentials with zeros.
The hop flood (distances and lowest-id parents around inactive nodes) and
the csgraph oracles must match `reference_oracles` exactly.
Depth recovery from the csgraph BFS order is also checked on long paths and
grids, whose many levels give many level boundaries, and skeleton floods on
a cached search graph must equal floods given the awake node set.  The
floods over local ids must equal the n-sized reference floods, on every
node, a drawn set or the source alone, traced or with their parents
derived on first read; on the same sets the hop oracle's answer for one
target must equal its full list, and the padded neighbour table must hold
each CSR row in order; a capped exposure oracle must equal the uncapped
one wherever the cap reaches.  The quadtree's unit-cell leaf
table must locate leaves and wake sensors exactly as the tree walk and the
per-sensor loop do.  The cluster retirement, one array pass per tree
level, must charge the messages and wake the sensors that the loop over
clusters does, and wake the directly built skeleton, on fields whose side
is seldom a power of two.  The uniform grid streets, found through a unit-bin
table, must be the sensors within half a width of some line.  The zone
test's bounding-box prefilter must keep every mask bit, and perimeter streets searched on a
boundary band must equal the search on the full graph.  The attach step,
which charges every ring of the expanding ring from one flood, must equal
the loop of depth-capped searches on fragmented skeletons.  Last, no search
may depend on how a search graph numbers its nodes: every search, the
floods, the oracles, component sizes, the main street component, the attach
step and the perimeter streets, gives the same result on space-ordered
graphs as on graphs whose members are numbered in a random order.  The
CSR build must equal every pairwise distance, pairs exactly one radio range
apart and ranges that hold no pair included; the space order, two stable
sorts, must equal one `lexsort` where x values repeat and y values sit on
strip boundaries; and component labels found as strong components must
give the partition and sizes of csgraph's undirected labelling.  Every
construction's skeleton, and the skeleton after an attach step, holds
read-only, disjoint awake and zone masks over all nodes, the zone mask
being the zone test's, its provenance keyed by exactly the awake nodes;
adding connectors never wakes a blocked node or re-tags an awake one, and
with nothing new to wake it returns the skeleton itself.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
from hypothesis import assume, example, given, settings, strategies as st

from reference_oracles import centralized_bfs as reference_centralized_bfs
from reference_oracles import centralized_min_exposure as \
    reference_min_exposure
from reference_oracles import reference_adaptive_awake, reference_attach, \
    reference_bfs, reference_bfs_flood, reference_cluster_retirement, \
    reference_component_labels, reference_csr, \
    reference_grid_streets, reference_leaf_at, \
    reference_min_exposure_flood, reference_perimeter_streets, \
    reference_points_in_region, reference_quadtree, reference_space_order
from skeleton_nav.adaptive import build_adaptive_skeleton, build_quadtree, \
    simulate_cluster_retirement
from skeleton_nav.danger import _EDGE_EPS, DangerZone, points_in_region, \
    zone_node_mask
from skeleton_nav.distsim import INF, active_graph, centralized_bfs, \
    centralized_min_exposure, extract_path, run_bfs_flood, run_min_exposure
import skeleton_nav.field
from skeleton_nav.field import CommGraph, SensorField, build_comm_graph, \
    generate_field, hop_distances, node_mask, space_order, spread
from skeleton_nav.harness import Scenario, ScenarioError, \
    _main_street_component, build_world, fixture_zone
from skeleton_nav.skeleton import Provenance, SkeletonGraph, \
    attach_offstreet_endpoints, tagged
from skeleton_nav.uniform import UniformStreetConfig, \
    build_perimeter_streets, build_uniform_skeleton, street_line_positions

EXAMPLES = settings(max_examples=200, deadline=None)


@st.composite
def instances(draw):
    """A graph, an active mask, an active source and a random generator."""
    n = draw(st.integers(4, 120))
    radio_range = draw(st.sampled_from((0.8, 1.2, 2.0, 3.0)))
    g = build_comm_graph(generate_field(n, radio_range,
                                        draw(st.integers(0, 2**16))))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    active = rng.random(n) < draw(st.sampled_from((0.5, 0.8, 1.0)))
    source = int(rng.integers(n))
    active[source] = True
    return g, active, source, rng


def potentials(rng, n: int) -> list[float]:
    """Random potentials, about a third of them exactly zero."""
    pot = rng.random(n)
    pot[rng.random(n) < 0.3] = 0.0
    return pot.tolist()


@EXAMPLES
@given(instances())
def test_hop_oracle_equals_reference(inst):
    g, active, src, rng = inst
    members = frozenset(np.flatnonzero(active).tolist())
    expect = reference_centralized_bfs(g, members, src)
    assert centralized_bfs(g, members, src) == expect
    assert centralized_bfs(g, active_graph(g, active), src) == expect


@EXAMPLES
@given(instances(), st.booleans())
def test_exposure_oracle_equals_reference(inst, isolate):
    g, active, src, rng = inst
    if isolate:  # the source hears no active neighbour
        active[list(g.adj[src])] = False
    other = int(rng.choice(np.flatnonzero(active)))
    pot = potentials(rng, g.n)
    members = frozenset(np.flatnonzero(active).tolist())
    expect = reference_min_exposure(g, members, src, pot)
    assert centralized_min_exposure(g, members, src, pot) == expect
    # two queries in turn on one prebuilt graph, potentials as a read-only
    # float64 array: the oracle shares the graph's index arrays, so it must
    # leave them as they were, and the second query must not see the first
    prebuilt = active_graph(g, active)
    mat = prebuilt.matrix
    before = [a.copy() for a in (mat.data, mat.indices, mat.indptr)]
    pot_array = np.array(pot, dtype=np.float64)
    pot_array.setflags(write=False)
    assert centralized_min_exposure(g, prebuilt, src, pot_array) == expect
    assert centralized_min_exposure(g, prebuilt, other, pot_array) == \
        reference_min_exposure(g, members, other, pot)
    after = (mat.data, mat.indices, mat.indptr)
    assert all(a.dtype == b.dtype and np.array_equal(a, b)
               for a, b in zip(before, after))


def lattice(xs, ys):
    """Comm graph of nodes at the given coordinates, unit radio range."""
    pos = np.column_stack((xs, ys)).astype(np.float64)
    side = float(pos.max()) + 1.0
    return build_comm_graph(SensorField(n=len(pos), side=side, radio_range=1.0,
                                        seed=0, positions=pos))


@st.composite
def shaped_instances(draw):
    """Random fields, long paths or grids, with an active mask and source.

    Paths (one level per node) and grids (levels along the diagonals) hold
    many levels.  Gaps in a path and inactive nodes split graphs into
    parts, and sometimes the source's neighbours are all switched off.
    """
    shape = draw(st.sampled_from(("field", "path", "grid")))
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    if shape == "field":
        g = build_comm_graph(generate_field(
            draw(st.integers(4, 120)),
            draw(st.sampled_from((0.8, 1.2, 2.0, 3.0))), seed))
    elif shape == "path":
        n = draw(st.integers(4, 300))
        # a step of 2 breaks the path, a step of 1 joins neighbours
        steps = np.where(rng.random(n) < draw(st.sampled_from((0.0, 0.02))),
                         2.0, 1.0)
        g = lattice(np.cumsum(steps), np.zeros(n))
    else:
        w, h = draw(st.integers(2, 25)), draw(st.integers(2, 25))
        xs, ys = np.meshgrid(np.arange(w), np.arange(h))
        g = lattice(xs.ravel(), ys.ravel())
    active = rng.random(g.n) < draw(st.sampled_from((0.7, 0.9, 1.0)))
    source = int(rng.integers(g.n))
    active[source] = True
    if draw(st.integers(0, 4)) == 0:
        active[list(g.adj[source])] = False  # an isolated source
    return g, active, source, rng


def hops(g, active, src):
    """Hop distances and parents of a flood, over all n nodes."""
    run = run_bfs_flood(g, active, src)
    return run.value, run.parent


@EXAMPLES
@given(shaped_instances())
def test_kernel_equals_reference_loop(inst):
    # the hop flood: distances and lowest-id parents over the active nodes
    # (as a mask and as a set) and over every node
    g, active, src, _ = inst
    expect = reference_bfs(g, [src], active)
    assert hops(g, active, src) == expect
    assert hops(g, set(np.flatnonzero(active).tolist()), src) == expect
    assert hops(g, None, src) == reference_bfs(g, [src])


@EXAMPLES
@given(shaped_instances())
def test_depth_recovery_equals_reference(inst):
    g, active, src, _ = inst
    search = active_graph(g, active)
    expect, _ = reference_bfs(g, [src], active)
    local = search.index(src)
    assert search.ids[local] == src
    assert hop_distances(search, local).tolist() == \
        [expect[v] for v in search.ids.tolist()]
    reached = sum(1 for d in expect if d != float("inf"))
    assert search.component_sizes[local] == reached


def _run_fields(run):
    return run.value, run.parent, run.transmissions, run.rounds


@EXAMPLES
@given(shaped_instances())
def test_floods_on_search_graph_equal_node_set_floods(inst):
    g, awake, _, rng = inst
    sk = SkeletonGraph(graph=g, tags=tagged(awake, Provenance.GRID_STREET),
                       blocked=np.zeros(g.n, dtype=bool),
                       construction="uniform")
    assert sk.search.mask.tolist() == awake.tolist()  # cache the base graph
    extra = np.flatnonzero(rng.random(g.n) < 0.3).tolist()
    grown = sk.with_connectors(extra)
    pot = potentials(rng, g.n)
    for skel in (sk, grown):
        nodes = np.flatnonzero(skel.awake).tolist()
        src = nodes[int(rng.integers(len(nodes)))]
        lines, again = [], []
        cached = run_bfs_flood(g, skel.search, src, trace=lines.append)
        plain = run_bfs_flood(g, skel.awake, src, trace=again.append)
        assert _run_fields(cached) == _run_fields(plain)
        assert lines == again
        mask = np.zeros(g.n, dtype=bool)
        mask[nodes] = True
        assert (cached.value, cached.parent) == \
            reference_bfs(g, [src], mask)
        # two sources on the same prebuilt search graph
        for start in (src, nodes[int(rng.integers(len(nodes)))]):
            lines, again = [], []
            cached = run_min_exposure(g, skel.search, start, pot,
                                      trace=lines.append)
            plain = run_min_exposure(g, skel.awake, start, pot,
                                     trace=again.append)
            assert _run_fields(cached) == _run_fields(plain)
            assert lines == again


@st.composite
def flood_instances(draw):
    """A shaped instance whose mask may also be every node or the source
    alone."""
    g, active, source, rng = draw(shaped_instances())
    kind = draw(st.sampled_from(("drawn", "every", "source")))
    if kind == "every":
        active = np.ones(g.n, dtype=bool)
    elif kind == "source":
        active = np.zeros(g.n, dtype=bool)
        active[source] = True
    return g, active, source, rng


def assert_route_walks_parents(run, src, dst):
    """The local parent walk reaches dst exactly when the run does, and
    follows the n-length parent list."""
    route = extract_path(run, dst)
    assert bool(route) == (run.value_at(dst) != INF)
    if route:
        chain = [dst]
        while chain[-1] != src:
            chain.append(run.parent[chain[-1]])
        assert route == tuple(reversed(chain))


@EXAMPLES
@given(flood_instances(), st.one_of(st.none(), st.integers(0, 3)))
def test_local_floods_equal_n_sized_floods(inst, order_seed):
    # each flood traced, then untraced: an untraced run leaves its parents
    # unset until first read, derives them then, and equals the reference
    g, active, src, rng = inst
    search = active_graph(g, active)
    lines, expect_lines = [], []
    run = run_bfs_flood(g, search, src, trace=lines.append)
    expect = reference_bfs_flood(g, active, src, trace=expect_lines.append)
    assert _run_fields(run) == expect
    assert lines == expect_lines
    dst = int(rng.integers(g.n))
    assert_route_walks_parents(run, src, dst)
    untraced = run_bfs_flood(g, search, src)
    assert untraced.local_parent is None
    assert_route_walks_parents(untraced, src, dst)
    assert _run_fields(untraced) == expect
    pot = potentials(rng, g.n)
    lines, expect_lines = [], []
    run = run_min_exposure(g, search, src, pot, trace=lines.append)
    expect = reference_min_exposure_flood(
        g, active, src, pot, trace=expect_lines.append,
        order_seed=order_seed)
    assert _run_fields(run) == expect
    assert lines == expect_lines
    assert run.total_packets == sum(run.transmissions)
    assert run.value_at(dst) == run.value[dst]
    assert_route_walks_parents(run, src, dst)
    untraced = run_min_exposure(g, search, src, pot)
    assert untraced.local_parent is None
    assert_route_walks_parents(untraced, src, dst)
    assert _run_fields(untraced) == expect
    assert untraced.total_packets == run.total_packets


@EXAMPLES
@given(flood_instances())
def test_hop_oracle_target_equals_the_full_list(inst):
    # every node as target: the source itself, reachable and unreachable
    # members, and nodes outside the active set; on the long paths and
    # grids, the source and 120 others
    g, active, src, rng = inst
    search = active_graph(g, active)
    full = centralized_bfs(g, search, src)
    targets = range(g.n)
    if g.n > 120:
        targets = [src, *rng.choice(g.n, 120, replace=False).tolist()]
    assert [centralized_bfs(g, search, src, target=dst)
            for dst in targets] == [full[dst] for dst in targets]


@EXAMPLES
@given(flood_instances())
def test_neighbor_table_equals_the_csr_rows(inst):
    g, active, _, _ = inst
    search = active_graph(g, active)
    mat, k = search.matrix, search.ids.size
    table = search.neighbor_table
    degree = np.diff(mat.indptr)
    assert table.shape == (k + 1, degree.max(initial=0))
    assert table.dtype == (np.int16 if k < 2**15 else np.int32)
    assert not table.flags.writeable
    for i, d in enumerate(degree.tolist()):
        row = table[i].tolist()
        assert row[:d] == mat.indices[mat.indptr[i]:mat.indptr[i + 1]].tolist()
        assert row[d:] == [k] * (table.shape[1] - d)
    assert table[k].tolist() == [k] * table.shape[1]


@EXAMPLES
@given(instances(), st.sampled_from((0.0, 1e-9, 0.5, 3.0)), st.booleans())
def test_capped_exposure_equals_uncapped_within_the_cap(inst, slack, frozen):
    # read-only potentials keep their weights on the search graph, so each
    # call below reuses them after the last one restored the source's row
    g, active, src, rng = inst
    pot = potentials(rng, g.n)
    if frozen:
        pot = np.array(pot)
        pot.setflags(write=False)
    search = active_graph(g, active)
    full = centralized_min_exposure(g, search, src, pot)
    for dst in range(g.n):
        value = full[dst]
        cap = value * (1 + slack) + slack if value != INF else \
            float(rng.uniform(0.0, 10.0))
        assert centralized_min_exposure(g, search, src, pot, target=dst,
                                        limit=cap) == value
    assert centralized_min_exposure(g, search, src, pot, target=src) == \
        full[src]
    # a cap below the source's own potential leaves every node beyond it,
    # the source too
    if pot[src] > 0:
        below = float(np.nextafter(pot[src], 0.0))
        assert centralized_min_exposure(g, search, src, pot, target=src,
                                        limit=below) == INF
        assert centralized_min_exposure(g, search, src, pot,
                                        limit=below) == [INF] * g.n
        assert centralized_min_exposure(g, search, src, pot, target=src,
                                        limit=pot[src]) == full[src]
    # a target outside the search graph reads inf without a search
    outside = np.flatnonzero(~search.mask)
    if outside.size:
        with mock.patch("skeleton_nav.distsim.dijkstra",
                        side_effect=AssertionError("searched")):
            for cap in (None, 1.0):
                assert centralized_min_exposure(
                    g, search, src, pot, target=int(outside[0]),
                    limit=cap) == INF


@st.composite
def leaf_table_cases(draw):
    """A zone, its quadtree, a street width and sensor positions.

    Field sides come from n: at n = 1056 (side 32.5) and n = 1090 the tree
    (side 64) reaches past the field.  Besides uniform positions, sensors
    sit on the edges and corners of random leaves, exactly half a width
    inside a leaf edge or the field's top and right borders, and beyond the
    field on every side.  Widths k / 32 make those margins equal half a
    width exactly.
    Danger points may sit on the half-unit grid, so on cell edges and
    corners, where they touch two or four unit cells.
    """
    n = draw(st.one_of(st.sampled_from((72, 272, 1056, 1090)),
                       st.integers(16, 1100)))
    side = math.sqrt(n)
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(("none", "simple", "complex", "points")))
    if kind == "none":
        zone = None
    elif kind == "points":
        pts = rng.uniform(0.0, side, size=(int(rng.integers(1, 6)), 2))
        if draw(st.booleans()):
            pts = np.round(pts * 2.0) / 2.0  # on integer lines and corners
        zone = DangerZone.point_set(pts)
    else:
        zone = fixture_zone(kind).zone
    zones = [] if zone is None else zone
    tree = build_quadtree(zones, side)
    width = draw(st.one_of(st.integers(1, 96).map(lambda k: k / 32),
                           st.floats(0.05, 3.0)))
    half = width / 2.0
    far = max(side, tree.side) + 1.0
    along = rng.uniform(0.0, side, size=6)
    pts = [rng.uniform(0.0, side, size=(int(rng.integers(0, 60)), 2)),
           rng.uniform(-1.0, far, size=(8, 2)),
           np.column_stack((np.full(6, side - half), along)),
           np.column_stack((along, np.full(6, side - half)))]
    for k in rng.integers(len(tree.leaves), size=20):
        leaf = tree.leaves[k]
        a, c = leaf.x0, leaf.y0
        b, d = a + leaf.size, c + leaf.size
        u, v = rng.uniform(a, b), rng.uniform(c, d)
        mx, my = (a + b) / 2.0, (c + d) / 2.0
        pts.append([(a, v), (b, v), (u, c), (u, d), (a, c),
                    (a + half, my), (b - half, my), (mx, c + half),
                    (mx, d - half)])
    pos = np.vstack(pts).astype(np.float64)
    g = build_comm_graph(SensorField(n=len(pos), side=side, radio_range=1.0,
                                     seed=0, positions=pos))
    return g, zone, tree, reference_quadtree(zones, side), width


@EXAMPLES
@given(leaf_table_cases())
def test_leaf_table_equals_tree_walk(case):
    g, zone, tree, ref, width = case
    for k, crossed in enumerate(tree.crossed):
        s = 1 << k
        expect = [[ref.tester.crossed(i * s, j * s, s)
                   for j in range(len(crossed))]
                  for i in range(len(crossed))]
        assert np.array_equal(crossed, expect)
    sk = build_adaptive_skeleton(g, zone, tree=tree, width=width)
    assert np.array_equal(sk.awake,
                          reference_adaptive_awake(g, zone, ref, width))
    assert sk.provenance == dict.fromkeys(np.flatnonzero(sk.awake).tolist(),
                                          Provenance.QUADTREE_EDGE)
    mask = zone_node_mask(zone, g.field.positions)
    assert np.array_equal(sk.blocked, mask)
    for x, y in g.field.positions.tolist():
        got, leaf = tree.leaf_at(x, y), reference_leaf_at(ref, x, y)
        assert (got.x0, got.y0, got.size) == (leaf.x0, leaf.y0, leaf.size)


RETIREMENTS = settings(max_examples=20, deadline=None)


@st.composite
def retirement_cases(draw):
    """A field of 200 to 1200 sensors, whose side is seldom a power of two,
    so the tree mostly overhangs it; a zone (none, a region or drawn danger
    points) and a street width from 0.5 to 3."""
    n = draw(st.integers(200, 1200))
    fld = generate_field(n, 3.0, draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(("none", "simple", "complex", "points")))
    if kind == "none":
        zone = None
    elif kind == "points":
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        zone = DangerZone.point_set(
            rng.uniform(0.0, fld.side, size=(int(rng.integers(1, 6)), 2)))
    else:
        zone = fixture_zone(kind).zone
    return build_comm_graph(fld), zone, draw(st.floats(0.5, 3.0))


@RETIREMENTS
@given(retirement_cases())
def test_retirement_equals_cluster_loop(case):
    g, zone, width = case
    ret = simulate_cluster_retirement(g, zone, width)
    messages, awake = reference_cluster_retirement(g, zone, width)
    assert ret.messages == messages
    assert np.array_equal(ret.awake, awake)
    assert np.array_equal(ret.awake,
                          build_adaptive_skeleton(g, zone, width=width).awake)


@st.composite
def grid_street_cases(draw):
    """A field, a zone, a grid-street config, its lines and half width.

    n need not be a square, so the field's far border need not sit on the
    street lattice.  Besides uniform positions, sensors sit at a line plus
    or minus half a width, one ulp either side of that, and beyond the
    field on both ends, with the other coordinate drawn at random.
    """
    n = draw(st.integers(16, 3000))
    fld = generate_field(n, 3.0, draw(st.integers(0, 2**16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    epsilon = draw(st.floats(0.01, 0.49))
    s = UniformStreetConfig(epsilon).separation(n)
    cfg = UniformStreetConfig(
        epsilon,
        width=draw(st.one_of(st.integers(11, 160).map(lambda k: k / 32),
                             st.floats(0.34, 5.0))),
        shift=draw(st.floats(0.0, 1.0, exclude_max=True)) * s)
    half = cfg.width / 2.0
    lines = street_line_positions(fld.side, s, cfg.shift)
    picks = np.asarray(lines)[rng.integers(len(lines), size=12)]
    marks = np.concatenate((picks - half, picks + half))
    coord = np.concatenate((marks, np.nextafter(marks, np.inf),
                            np.nextafter(marks, -np.inf),
                            rng.uniform(-2.0, 0.0, size=4),
                            fld.side + rng.uniform(0.0, 2.0, size=4)))
    rng.shuffle(coord)
    coord = coord[:n]
    pos = fld.positions.copy()
    axis = rng.integers(2, size=len(coord))
    pos[np.arange(len(coord)), axis] = coord
    zone = draw(st.sampled_from((None, "simple", "complex")))
    zone = None if zone is None else fixture_zone(zone).zone
    g = CommGraph(field=SensorField(n=n, side=fld.side, radio_range=3.0,
                                    seed=fld.seed, positions=pos))
    return g, zone, cfg, lines, half


@EXAMPLES
@given(grid_street_cases())
def test_grid_streets_equal_distance_to_every_line(case):
    g, zone, cfg, lines, half = case
    sk = build_uniform_skeleton(g, zone, cfg)
    assert list(sk.geometry.lines) == lines
    grid = sk.tags == Provenance.GRID_STREET.tag
    assert np.array_equal(grid, reference_grid_streets(g, zone, lines, half))


def short_edge_polygon(draw, rng) -> np.ndarray:
    """A triangle or a quad whose first edge is 1e-7 to 1e-2 long."""
    short = 10.0 ** draw(st.integers(-7, -2))
    theta = rng.uniform(0.0, 2 * math.pi)
    along = np.array([math.cos(theta), math.sin(theta)])
    perp = np.array([-along[1], along[0]])
    a = rng.uniform(-5.0, 5.0, size=2)
    b = a + short * along
    h = rng.uniform(0.5, 5.0)
    u1 = rng.uniform(-3.0, 3.0)
    if draw(st.booleans()):
        return np.array([a, b, a + h * perp + u1 * along])
    u2 = u1 - rng.uniform(0.01, 3.0)  # d before c: the quad stays simple
    return np.array([a, b, a + h * perp + u1 * along,
                     a + h * perp + u2 * along])


@st.composite
def zone_mask_cases(draw):
    """A polygon and points on, a hair off and around its edges and box.

    Polygons are the fixtures, shifted copies of them, and triangles and
    quads with a very short edge, whose on-edge test reaches up to
    _EDGE_EPS / |edge| beyond the edge's ends.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    kind = draw(st.sampled_from(("simple", "complex", "short")))
    if kind == "short":
        verts = short_edge_polygon(draw, rng)
    else:
        verts = fixture_zone(kind).zone.vertices
        if draw(st.booleans()):
            verts = verts + rng.uniform(-30.0, 30.0, size=2)
    zone = DangerZone.region(verts)
    verts = zone.vertices
    ends = np.roll(verts, -1, axis=0)
    edge = ends - verts
    length = np.hypot(*edge.T)[:, None]
    unit = edge / length
    normal = np.column_stack((unit[:, 1], -unit[:, 0]))
    t = rng.random((len(verts), 1))
    pts = [verts, verts + t * edge]
    for k in (0.5, 0.9, 1.1, 2.0):
        reach = k * _EDGE_EPS / length  # along the edge, beyond each end
        pts += [ends + reach * unit, verts - reach * unit]
        side = k * math.sqrt(_EDGE_EPS)  # across the edge, either way
        pts += [verts + t * edge + side * normal,
                verts + t * edge - side * normal]
    lo, hi = verts.min(axis=0), verts.max(axis=0)
    for hair in (0.0, 1e-12, 1e-6, 1e-4, 1e-2):
        u = rng.uniform(lo, hi, size=(4, 2))
        pts += [np.column_stack((np.full(4, lo[0] - hair), u[:, 1])),
                np.column_stack((np.full(4, hi[0] + hair), u[:, 1])),
                np.column_stack((u[:, 0], np.full(4, lo[1] - hair))),
                np.column_stack((u[:, 0], np.full(4, hi[1] + hair)))]
    pts.append(rng.uniform(lo - 1.0, hi + 1.0, size=(40, 2)))
    return zone, np.vstack(pts)


@EXAMPLES
@given(zone_mask_cases())
def test_zone_prefilter_keeps_every_mask_bit(case):
    zone, pts = case
    assert points_in_region(zone, pts).tolist() == \
        reference_points_in_region(zone, pts).tolist()


@st.composite
def perimeter_cases(draw):
    """A field around a random region zone, a radio range and a width.

    Zones are star-shaped polygons, so always simple, of any size relative
    to the field; extra sensors sit on the zone's edges and a hair outside
    them.  Widths give ceil(width) from 0 to 3.
    """
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    radio_range = draw(st.sampled_from((1.3, 3.0)))
    fld = generate_field(draw(st.integers(40, 600)), radio_range, seed)
    k = draw(st.integers(3, 10))
    # jittered sectors keep every angular gap below pi: a simple polygon
    angles = (np.arange(k) + rng.uniform(0.0, 0.4, size=k)) * 2 * math.pi / k
    radius = rng.uniform(0.5, fld.side / 2) * rng.uniform(0.4, 1.0, size=k)
    verts = rng.uniform(0.0, fld.side, size=2) + \
        np.column_stack((radius * np.cos(angles), radius * np.sin(angles)))
    zone = DangerZone.region(verts)
    t = rng.random((k, 1))
    on_edge = verts + t * (np.roll(verts, -1, axis=0) - verts)
    pos = np.vstack((fld.positions, on_edge, on_edge * (1 + 1e-6)))
    g = build_comm_graph(SensorField(n=len(pos), side=fld.side,
                                     radio_range=radio_range, seed=seed,
                                     positions=pos))
    width = draw(st.sampled_from((0.0, 0.4, 1.0, 1.5, 2.0, 2.6, 3.0)))
    return g, zone, width


@EXAMPLES
@given(perimeter_cases())
def test_band_perimeter_equals_full_graph_search(case):
    g, zone, width = case
    assert np.array_equal(build_perimeter_streets(g, zone, width),
                          reference_perimeter_streets(g, zone, width))


@st.composite
def attach_cases(draw):
    """A uniform skeleton around a random region, with two active endpoints.

    Width 1.5 breaks the streets into pieces, and short radio ranges split
    the field, so some sources sit in a component with no street node.
    Sources are off-street where any active node is, and half the time
    they come from those street-less components when any exist.
    """
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    fld = generate_field(draw(st.integers(60, 500)),
                         draw(st.sampled_from((1.2, 2.0, 3.0))), seed)
    g = build_comm_graph(fld)
    k = draw(st.integers(3, 8))
    angles = (np.arange(k) + rng.uniform(0.0, 0.4, size=k)) * 2 * math.pi / k
    radius = rng.uniform(0.5, fld.side / 3) * rng.uniform(0.4, 1.0, size=k)
    verts = rng.uniform(0.0, fld.side, size=2) + \
        np.column_stack((radius * np.cos(angles), radius * np.sin(angles)))
    sk = build_uniform_skeleton(
        g, DangerZone.region(verts),
        UniformStreetConfig(epsilon=1 / 6,
                            width=draw(st.sampled_from((1.5, 2.5)))))
    active = sk.active
    labels = active.component_labels
    streets = np.unique(labels[sk.search.mask[active.ids]])
    stranded = active.ids[~np.isin(labels, streets)]
    off = active.ids[~sk.search.mask[active.ids]]
    pool = stranded if stranded.size and draw(st.booleans()) else \
        off if off.size else active.ids
    src = int(rng.choice(pool))
    dst = int(rng.choice(active.ids))
    return g, sk, src, dst


@EXAMPLES
@given(attach_cases())
def test_attach_equals_ring_loop(case):
    g, sk, src, dst = case
    res = attach_offstreet_endpoints(g, sk, src, dst)
    packets, connectors, src_ok, dst_ok = reference_attach(g, sk, src, dst)
    assert (res.packets, res.src_attached, res.dst_attached) == \
        (packets, src_ok, dst_ok)
    assert np.array_equal(res.skeleton.awake,
                          sk.awake | node_mask(g.n, connectors))


NUMBERINGS = settings(max_examples=100, deadline=None)


@contextmanager
def random_numbering(seed: int):
    """Number the members of every partial search graph built inside in a
    random order, in place of space order."""
    rng = np.random.default_rng(seed)

    def shuffled(fld, mask):
        return rng.permutation(np.flatnonzero(mask))

    with mock.patch.object(skeleton_nav.field, "space_order", shuffled):
        yield


def numbered_outcomes(g, active, awake, src, dst, pot):
    """Every search's result by node id, on search graphs built afresh."""
    lines = []
    runs = [run_bfs_flood(g, active, src, trace=lines.append),
            run_min_exposure(g, active, src, pot, trace=lines.append)]
    search = active_graph(g, active)
    sk = SkeletonGraph(graph=g, tags=tagged(awake, Provenance.GRID_STREET),
                       blocked=~active, construction="uniform")
    att = attach_offstreet_endpoints(g, sk, src, dst)
    return ([_run_fields(r) + (r.total_packets,) for r in runs], lines,
            [extract_path(r, dst) for r in runs],
            centralized_bfs(g, search, src),
            centralized_bfs(g, search, src, target=dst),
            centralized_min_exposure(g, search, src, pot),
            centralized_min_exposure(g, search, src, pot, target=dst),
            spread(search.ids, search.component_sizes, g.n, 0),
            _main_street_component(sk),
            (np.flatnonzero(att.skeleton.awake).tolist(), att.packets,
             att.src_attached, att.dst_attached))


@NUMBERINGS
@given(shaped_instances(), st.sampled_from((0.2, 0.5)),
       st.sampled_from((0, 2, 3)), st.integers(0, 2**16))
def test_searches_do_not_depend_on_node_numbering(inst, share, ring,
                                                  numbering):
    # a sparse awake set falls into many equal pieces, and grids and zero
    # potentials give many equal distances: ties everywhere
    g, active, src, rng = inst
    if active.all():  # the graph over every node is never renumbered
        active[(src + 1 + int(rng.integers(g.n - 1))) % g.n] = False
    awake = active & (rng.random(g.n) < share)
    if ring:
        # every street node `ring` hops from the source: the attach ring
        # finds several equally near ones, on different chains
        awake &= np.array(run_bfs_flood(g, active, src).value) == ring
    else:
        off = np.flatnonzero(active & ~awake)
        if off.size:
            src = int(rng.choice(off))  # the attach ring runs
    if not awake.any():
        awake[src] = True
    dst = int(rng.choice(np.flatnonzero(active)))
    pot = potentials(rng, g.n)
    expect = numbered_outcomes(g, active, awake, src, dst, pot)
    with random_numbering(numbering):
        assert numbered_outcomes(g, active, awake, src, dst, pot) == expect


@NUMBERINGS
@given(perimeter_cases(), st.integers(0, 2**16))
def test_perimeter_streets_do_not_depend_on_node_numbering(case, numbering):
    g, zone, width = case
    expect = build_perimeter_streets(g, zone, width)
    with random_numbering(numbering):
        assert np.array_equal(build_perimeter_streets(g, zone, width), expect)


BUILDS = settings(max_examples=100, deadline=None)


@st.composite
def csr_fields(draw):
    """Uniform fields, integer lattices with coincident nodes and many
    pairs exactly one radio range apart, and ranges too short for any
    pair."""
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(4, 150))
    kind = draw(st.sampled_from(("uniform", "lattice", "apart")))
    if kind == "lattice":
        pos = np.random.default_rng(seed).integers(
            0, math.isqrt(n) + 1, size=(n, 2)).astype(np.float64)
        return SensorField(n=n, side=float(pos.max()) + 1.0,
                           radio_range=draw(st.sampled_from((1.0, 2.0, 5.0))),
                           seed=seed, positions=pos)
    r = draw(st.sampled_from((0.8, 1.5, 3.0))) if kind == "uniform" else 1e-9
    return generate_field(n, r, seed)


@BUILDS
@given(csr_fields())
@example(generate_field(4, 1e-9, 0))  # no pair in range
@example(SensorField(n=4, side=9.0, radio_range=5.0, seed=0,  # 3-4-5 apart
                     positions=np.array([[0.0, 0.0], [3.0, 4.0], [5.0, 0.0],
                                         [8.0, 4.0]])))
def test_csr_equals_all_pairs_reference(fld):
    g = CommGraph(field=fld)
    indptr, indices = reference_csr(fld)
    assert (g.indptr.dtype, g.indices.dtype) == (np.int64, np.int32)
    assert np.array_equal(g.indptr, indptr)
    assert np.array_equal(g.indices, indices)


@st.composite
def order_cases(draw):
    """Fields whose x values repeat and whose y values sit exactly on strip
    boundaries, with a member mask; the shortest range makes more strips
    than a 16-bit index holds."""
    seed = draw(st.integers(0, 2**16))
    rng = np.random.default_rng(seed)
    n = draw(st.integers(4, 300))
    r = draw(st.sampled_from((0.7, 1.0, 1.5, 3.0, 1e-4)))
    fld = generate_field(n, r, seed)
    x, y = fld.positions.T.copy()
    dup = rng.random(n) < 0.3
    x[dup] = rng.choice(x, size=np.count_nonzero(dup))
    edge = rng.random(n) < 0.3
    y[edge] = r * rng.integers(0, math.ceil(fld.side / r),
                               size=np.count_nonzero(edge))
    mask = rng.random(n) < draw(st.sampled_from((0.5, 6 / 7, 1.0)))
    return SensorField(n=n, side=fld.side, radio_range=r, seed=seed,
                       positions=np.column_stack((x, y))), mask


@BUILDS
@given(order_cases())
def test_space_order_equals_lexsort(case):
    fld, mask = case
    assert np.array_equal(space_order(fld, mask),
                          reference_space_order(fld, mask))


@st.composite
def label_cases(draw):
    """A comm graph and a member mask: drawn, every node or one node."""
    seed = draw(st.integers(0, 2**16))
    n = draw(st.integers(4, 150))
    g = build_comm_graph(generate_field(
        n, draw(st.sampled_from((0.8, 1.2, 2.0, 3.0))), seed))
    rng = np.random.default_rng(seed)
    kind = draw(st.sampled_from(("drawn", "every", "one")))
    if kind == "every":
        return g, np.ones(n, dtype=bool)
    if kind == "one":
        return g, np.arange(n) == rng.integers(n)
    return g, rng.random(n) < draw(st.sampled_from((0.3, 0.6, 0.9)))


@BUILDS
@given(label_cases())
def test_component_labels_equal_the_undirected_reference(case):
    g, mask = case
    search = g.induced(mask)
    labels, ref = search.component_labels, reference_component_labels(search)
    # the same partition: the label pairs match one to one
    matched = np.unique(np.column_stack((labels, ref)), axis=0)
    assert len(matched) == len(np.unique(labels)) == len(np.unique(ref))
    assert np.array_equal(search.component_sizes, np.bincount(ref)[ref])


SKELETONS = settings(max_examples=40, deadline=None)


@st.composite
def skeleton_worlds(draw):
    """A world of every construction: full, uniform with and without
    pruning, adaptive with and without Voronoi streets."""
    kind = draw(st.sampled_from(("full", "uniform", "pruned", "adaptive",
                                 "voronoi")))
    n = draw(st.sampled_from((256, 576, 1024)))
    zone = "points" if kind == "voronoi" else \
        draw(st.sampled_from(("none", "simple", "complex", "points")))
    s = Scenario(n=n, seed=draw(st.integers(0, 2**16)), zone_kind=zone,
                 danger_count=draw(st.integers(2, int(math.sqrt(n) / 4))),
                 danger_seed=draw(st.integers(0, 2**16)),
                 skeleton={"pruned": "uniform", "voronoi": "adaptive"}.get(
                     kind, kind),
                 prune=kind == "pruned", voronoi=kind == "voronoi",
                 epsilon=1 / 6, width=draw(st.sampled_from((None, 1.0, 2.0))))
    try:
        return build_world(s)
    except ScenarioError:
        assume(False)


def assert_node_arrays(sk, zone):
    n = sk.graph.n
    assert sk.tags.dtype == np.int8 and not sk.tags.flags.writeable
    assert sk.awake.dtype == sk.blocked.dtype == bool
    assert sk.awake.shape == sk.blocked.shape == (n,)
    assert not (sk.awake.flags.writeable or sk.blocked.flags.writeable)
    assert not (sk.awake & sk.blocked).any()
    assert np.array_equal(sk.blocked,
                          zone_node_mask(zone, sk.graph.field.positions))
    assert sk.size == np.count_nonzero(sk.awake)
    assert list(sk.provenance) == np.flatnonzero(sk.awake).tolist()


@SKELETONS
@given(skeleton_worlds(), st.integers(0, 2**16), st.sampled_from(Provenance))
def test_skeletons_hold_node_masks(world, seed, tag):
    sk, g, zone = world.skeleton, world.graph, world.zone
    rng = np.random.default_rng(seed)
    assert_node_arrays(sk, zone)
    search = sk.search
    extra = rng.random(g.n) < 0.2
    grown = sk.with_connectors(extra, tag)
    assert_node_arrays(grown, zone)
    assert np.array_equal(grown.awake, sk.awake | (extra & ~sk.blocked))
    assert np.array_equal(grown.tags[sk.awake], sk.tags[sk.awake])
    assert (grown.tags[grown.awake & ~sk.awake] == tag.tag).all()
    # nothing new to wake: the skeleton itself, with its search graph
    assert sk.with_connectors(sk.awake | sk.blocked, tag) is sk
    assert sk.with_connectors(np.flatnonzero(sk.awake), tag) is sk
    street = np.flatnonzero(sk.awake)
    a, b = rng.choice(street, size=2).tolist()
    assert attach_offstreet_endpoints(g, sk, a, b).skeleton is sk
    assert sk.search is search
    src = int(rng.choice(np.flatnonzero(~sk.blocked)))
    att = attach_offstreet_endpoints(g, sk, src, int(rng.integers(g.n)))
    assert_node_arrays(att.skeleton, zone)
    assert np.array_equal(att.skeleton.tags[sk.awake], sk.tags[sk.awake])
