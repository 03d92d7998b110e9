"""Property tests: the array searches against the pure-Python references.

Small random fields, including short radio ranges that split the graph into
isolated components, random active masks, and potentials with zeros.  The
BFS kernel and the csgraph oracles must match `reference_oracles` exactly.
Depth recovery from the csgraph BFS order is also checked on long paths and
grids, whose many levels give many level boundaries, and skeleton floods on
a cached search graph must equal floods given the awake node set.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from reference_oracles import centralized_bfs as reference_centralized_bfs
from reference_oracles import centralized_min_exposure as \
    reference_min_exposure
from reference_oracles import reference_bfs
from skeleton_nav.distsim import active_graph, centralized_bfs, \
    centralized_min_exposure, run_bfs_flood, run_min_exposure
from skeleton_nav.field import SensorField, bfs_tree, build_comm_graph, \
    generate_field, hop_distances
from skeleton_nav.skeleton import Provenance, SkeletonGraph

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
@given(instances())
def test_exposure_oracle_equals_reference(inst):
    g, active, src, rng = inst
    pot = potentials(rng, g.n)
    members = frozenset(np.flatnonzero(active).tolist())
    expect = reference_min_exposure(g, members, src, pot)
    assert centralized_min_exposure(g, members, src, pot) == expect
    prebuilt = active_graph(g, active)
    assert centralized_min_exposure(g, prebuilt, src, pot) == expect


@EXAMPLES
@given(instances(), st.integers(1, 4),
       st.one_of(st.none(), st.integers(0, 6)))
def test_kernel_equals_reference_loop(inst, source_count, max_depth):
    g, active, _, rng = inst
    # sources are drawn from all nodes, so some may lie outside the mask
    sources = rng.choice(g.n, size=min(source_count, g.n), replace=False)
    dist, parent = bfs_tree(g, sources, active, max_depth=max_depth)
    expect = reference_bfs(g, sources.tolist(), active, max_depth)
    assert (dist.tolist(), parent.tolist()) == expect
    all_dist, all_parent = bfs_tree(g, sources, max_depth=max_depth)
    assert (all_dist.tolist(), all_parent.tolist()) == \
        reference_bfs(g, sources.tolist(), None, max_depth)


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
        active[list(g.neighbors(source))] = False  # an isolated source
    return g, active, source, rng


@EXAMPLES
@given(shaped_instances())
def test_depth_recovery_equals_reference(inst):
    g, active, src, _ = inst
    search = active_graph(g, active)
    expect, _ = reference_bfs(g, [src], active)
    assert hop_distances(search, src).tolist() == expect
    reached = sum(1 for d in expect if d != float("inf"))
    assert search.component_sizes[src] == reached


def _run_fields(run):
    return run.value, run.parent, run.transmissions, run.rounds


@EXAMPLES
@given(shaped_instances())
def test_floods_on_search_graph_equal_node_set_floods(inst):
    g, awake, _, rng = inst
    members = frozenset(np.flatnonzero(awake).tolist())
    sk = SkeletonGraph(graph=g, awake=members,
                       provenance=dict.fromkeys(members,
                                                Provenance.GRID_STREET),
                       construction="uniform")
    assert sk.search.mask.tolist() == awake.tolist()  # cache the base graph
    extra = np.flatnonzero(rng.random(g.n) < 0.3).tolist()
    grown = sk.with_connectors(extra)
    pot = potentials(rng, g.n)
    for skel in (sk, grown):
        nodes = sorted(skel.awake)
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
        lines, again = [], []
        cached = run_min_exposure(g, skel.search, src, pot,
                                  trace=lines.append)
        plain = run_min_exposure(g, skel.awake, src, pot, trace=again.append)
        assert _run_fields(cached) == _run_fields(plain)
        assert lines == again
