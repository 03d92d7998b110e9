"""Property tests: the array searches against the pure-Python references.

Small random fields, including short radio ranges that split the graph into
isolated components, random active masks, and potentials with zeros.  The
BFS kernel and the csgraph oracles must match `reference_oracles` exactly.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from reference_oracles import centralized_bfs as reference_centralized_bfs
from reference_oracles import centralized_min_exposure as \
    reference_min_exposure
from reference_oracles import reference_bfs
from skeleton_nav.distsim import active_graph, centralized_bfs, \
    centralized_min_exposure
from skeleton_nav.field import bfs_tree, build_comm_graph, generate_field

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
