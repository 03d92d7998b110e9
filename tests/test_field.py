"""Field generation and communication graph tests.

The adjacency oracle is the quadratic all-pairs distance check
(`reference_csr`); BFS is checked against scipy's unweighted shortest_path
on the same adjacency.
Two memory guards bound what the CSR build and the component labelling
allocate, as tracemalloc sees it.  The padded neighbour table widens from
int16 to int32 where its sentinel needs it.
"""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from reference_oracles import reference_csr
from skeleton_nav.field import (
    CommGraph,
    SensorField,
    active_graph,
    build_comm_graph,
    generate_field,
    hop_bfs,
    hop_distances,
    hops_between,
    nearest_node,
)

INF = math.inf


def scipy_hops(graph: CommGraph, source: int, keep=None) -> list[float]:
    """Hop distances via scipy on the (optionally restricted) adjacency."""
    if keep is None:
        keep = set(range(graph.n))
    rows, cols = [], []
    for u in range(graph.n):
        if u not in keep:
            continue
        for v in graph.adj[u]:
            if v in keep:
                rows.append(u)
                cols.append(v)
    mat = csr_matrix((np.ones(len(rows)), (rows, cols)),
                     shape=(graph.n, graph.n))
    dist = shortest_path(mat, method="D", unweighted=True, indices=source)
    out = dist.tolist()
    for v in range(graph.n):
        if v not in keep:
            out[v] = INF
    return out


def test_field_dimensions_and_bounds():
    f = generate_field(256, 3.0, 1)
    assert f.n == 256
    assert f.side == 16.0
    assert f.positions.shape == (256, 2)
    assert f.positions.dtype == np.float64
    assert np.all(f.positions >= 0.0)
    assert np.all(f.positions <= f.side)


def test_field_positions_are_read_only():
    f = generate_field(64, 3.0, 0)
    with pytest.raises(ValueError):
        f.positions[0, 0] = 5.0


def test_field_matches_reference_generator():
    # the documented contract: positions come straight from numpy's
    # default_rng(seed).uniform over the square, in one draw
    f = generate_field(128, 3.0, 42)
    expect = np.random.default_rng(42).uniform(0.0, math.sqrt(128),
                                               size=(128, 2))
    assert np.array_equal(f.positions, expect)


def test_field_regeneration_is_bit_identical():
    a = generate_field(512, 3.0, 7)
    b = generate_field(512, 3.0, 7)
    assert np.array_equal(a.positions, b.positions)
    c = generate_field(512, 3.0, 8)
    assert not np.array_equal(a.positions, c.positions)


def test_generate_field_rejects_bad_inputs():
    with pytest.raises(ValueError):
        generate_field(3, 3.0, 0)
    with pytest.raises(ValueError):
        generate_field(64, 0.0, 0)
    with pytest.raises(ValueError):
        generate_field(64, -1.0, 0)


def test_sensor_field_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        SensorField(n=4, side=2.0, radio_range=1.0, seed=0,
                    positions=np.zeros((3, 2)))


def test_adjacency_matches_allpairs_oracle():
    rng = np.random.default_rng(0)
    for seed in range(50):
        n = int(rng.integers(16, 257))
        f = generate_field(n, 3.0, seed)
        g = build_comm_graph(f)
        indptr, indices = reference_csr(f)
        assert np.array_equal(g.indptr, indptr) and \
            np.array_equal(g.indices, indices), f"CSR mismatch at seed {seed}"


def test_exact_range_edge_is_included():
    # separations of exactly r and of r + 1 on hand-placed sensors
    pos = np.array([[0.0, 0.0], [3.0, 0.0], [7.0, 0.0], [7.0, 3.0]])
    f = SensorField(n=4, side=10.0, radio_range=3.0, seed=0, positions=pos)
    g = build_comm_graph(f)
    assert g.adj == ((1,), (0,), (3,), (2,))


def test_adjacency_sorted_without_self_loops(graph_cache):
    g = graph_cache(256, 3.0, 3)
    for i, nbrs in enumerate(g.adj):
        assert i not in nbrs
        assert list(nbrs) == sorted(nbrs)
    assert g.edge_count() == sum(len(a) for a in g.adj) // 2
    assert g.adj[5] == tuple(g.indices[g.indptr[5]:g.indptr[6]].tolist())


def test_induced_over_every_node_shares_the_graph(graph_cache):
    g = graph_cache(256, 3.0, 3)
    mask = np.ones(g.n, dtype=bool)
    every = g.induced(mask)
    assert every.ids.tolist() == list(range(g.n))
    full = every.matrix
    assert np.shares_memory(full.indices, g.indices)
    assert np.array_equal(full.indptr, g.indptr)
    assert np.array_equal(full.indices, g.indices)
    assert full.data.tolist() == [1.0] * len(g.indices)
    # one node out takes the general path: the other rows, relabelled to
    # local ids, must agree
    mask[7] = False
    sub = g.induced(mask)
    part, keep = sub.matrix, sub.ids
    assert part.shape == (g.n - 1, g.n - 1)
    assert (full[keep][:, keep] != part).nnz == 0
    assert hop_distances(active_graph(g, None), 0).tolist() == \
        scipy_hops(g, 0)


def test_neighbor_table_widens_when_the_sentinel_needs_it():
    # the padding sentinel is k: a path of 2**15 - 1 nodes keeps int16,
    # one node more takes int32, and the hop oracle reads either
    for n, dtype in ((2**15 - 1, np.int16), (2**15, np.int32)):
        pos = np.column_stack((np.arange(n), np.zeros(n))).astype(float)
        g = build_comm_graph(SensorField(n=n, side=float(n), radio_range=1.0,
                                         seed=0, positions=pos))
        search = active_graph(g, None)
        table = search.neighbor_table
        assert table.dtype == dtype and table.shape == (n + 1, 2)
        assert table[0].tolist() == [1, n]
        assert table[n - 1].tolist() == [n - 2, n]
        assert hops_between(search, n - 1, n - 6) == 5.0


def traced_peak(read) -> int:
    """Peak bytes traced by tracemalloc while read() runs, above the start."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        read()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


# numpy reports its allocations to tracemalloc, but the k-d tree's own pair
# array is allocated outside its view, so these guards measure the
# package's numpy temporaries.  A key array beside the pairs, or the
# transposed copy that undirected labelling makes, would fail them.
def test_csr_build_peaks_at_its_own_arrays():
    g = build_comm_graph(generate_field(4096, 3.0, 5))
    peak = traced_peak(lambda: g.indices)
    assert peak <= 1.25 * (g.indices.nbytes + g.indptr.nbytes)


def test_component_labels_make_no_matrix_copy():
    g = build_comm_graph(generate_field(4096, 3.0, 5))
    mask = np.random.default_rng(5).random(g.n) < 0.8
    for search in (g.induced(np.ones(g.n, dtype=bool)), g.induced(mask)):
        peak = traced_peak(lambda: search.component_labels)
        assert peak <= 32 * search.ids.size


def test_hop_bfs_matches_scipy_oracle():
    for seed in range(10):
        g = build_comm_graph(generate_field(128, 3.0, seed))
        dist, _ = hop_bfs(g, 0)
        assert dist == scipy_hops(g, 0)


def test_hop_bfs_with_blocked_matches_restricted_oracle():
    for seed in range(5):
        g = build_comm_graph(generate_field(128, 3.0, seed))
        blocked = {v for v in range(g.n) if v % 5 == 0 and v != 3}
        keep = set(range(g.n)) - blocked
        dist, _ = hop_bfs(g, 3, blocked)
        assert dist == scipy_hops(g, 3, keep)
        # mask form behaves identically to the set form
        mask = np.zeros(g.n, dtype=bool)
        mask[sorted(blocked)] = True
        dist2, _ = hop_bfs(g, 3, mask)
        assert dist2 == dist


def test_hop_bfs_parent_is_lowest_predecessor(graph_cache):
    g = graph_cache(256, 3.0, 3)
    dist, parent = hop_bfs(g, 0)
    for v in range(g.n):
        if dist[v] in (0, INF):
            assert parent[v] == -1
            continue
        preds = [u for u in g.adj[v] if dist[u] == dist[v] - 1]
        assert parent[v] == min(preds)


def test_hop_bfs_distance_changes_by_one_per_edge(graph_cache):
    g = graph_cache(256, 3.0, 3)
    dist, _ = hop_bfs(g, 0)
    for u in range(g.n):
        for v in g.adj[u]:
            if dist[u] != INF and dist[v] != INF:
                assert abs(dist[u] - dist[v]) <= 1


def test_hop_bfs_rejects_bad_sources(graph_cache):
    g = graph_cache(256, 3.0, 3)
    with pytest.raises(ValueError):
        hop_bfs(g, -1)
    with pytest.raises(ValueError):
        hop_bfs(g, g.n)
    with pytest.raises(ValueError):
        hop_bfs(g, 4, {4})


def test_nearest_node_brute_force(graph_cache):
    g = graph_cache(256, 3.0, 3)
    f = g.field
    rng = np.random.default_rng(1)
    for _ in range(25):
        p = tuple(rng.uniform(0.0, f.side, size=2))
        d = np.hypot(f.positions[:, 0] - p[0], f.positions[:, 1] - p[1])
        assert nearest_node(f, p) == int(np.argmin(d))


def test_nearest_node_tie_and_candidates():
    pos = np.array([[0.0, 0.0], [2.0, 0.0], [1.0, 5.0], [8.0, 8.0]])
    f = SensorField(n=4, side=10.0, radio_range=3.0, seed=0, positions=pos)
    # (1, 0) is equidistant from sensors 0 and 1: lowest id wins
    assert nearest_node(f, (1.0, 0.0)) == 0
    assert nearest_node(f, (1.0, 0.0), candidates=[2, 1]) == 1
    with pytest.raises(ValueError):
        nearest_node(f, (1.0, 0.0), candidates=[])
