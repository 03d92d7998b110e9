"""Distributed search simulation tests.

Flood results are compared for exact equality against centralized BFS and
node-weighted Dijkstra over random subgraphs, packet counters against the
reached-node counts, and tiny hand-built graphs pin the trace format.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from skeleton_nav.danger import PotentialModel, potential_of_distance
from skeleton_nav.distsim import (
    PacketKind,
    SimRun,
    active_graph,
    centralized_bfs,
    centralized_min_exposure,
    extract_path,
    run_bfs_flood,
    run_min_exposure,
    run_potential_phase,
)
from skeleton_nav.field import SensorField, build_comm_graph, \
    generate_field, node_mask
from skeleton_nav.harness import Scenario, build_world

from reference_oracles import reference_min_exposure_flood

INF = math.inf


def random_instance(seed: int):
    """A graph, an active subset, and a source inside it."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(64, 257))
    g = build_comm_graph(generate_field(n, 3.0, seed))
    if seed % 3 == 0:
        active = frozenset(range(n))
    else:
        keep = rng.random(n) < 0.7
        active = frozenset(np.flatnonzero(keep).tolist())
        if not active:
            active = frozenset({0})
    source = int(rng.choice(sorted(active)))
    return g, active, source


@pytest.fixture(scope="module")
def tiny_graph():
    # path 0-1 plus a fork: 1-2 and 1-3
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [1.0, 1.0]])
    f = SensorField(n=4, side=2.0, radio_range=1.0, seed=0, positions=pos)
    return build_comm_graph(f)


def test_bfs_flood_equals_centralized():
    for seed in range(50):
        g, active, src = random_instance(seed)
        run = run_bfs_flood(g, active, src)
        assert run.value == centralized_bfs(g, active, src), f"seed {seed}"


def test_bfs_flood_packet_accounting():
    for seed in range(20):
        g, active, src = random_instance(seed)
        run = run_bfs_flood(g, active, src)
        reached = [v for v in range(g.n) if run.value[v] != INF]
        assert all(t in (0, 1) for t in run.transmissions)
        assert all((run.transmissions[v] == 1) == (run.value[v] != INF)
                   for v in range(g.n))
        assert run.total_packets == len(reached)


def test_bfs_flood_parents_are_lowest_id_predecessors():
    g, active, src = random_instance(1)
    run = run_bfs_flood(g, active, src)
    for v in range(g.n):
        if run.value[v] in (0.0, INF):
            assert run.parent[v] == -1
            continue
        preds = [u for u in g.adj[v]
                 if u in active and run.value[u] == run.value[v] - 1]
        assert run.parent[v] == min(preds)


def test_min_exposure_equals_centralized_dijkstra():
    for seed in range(50):
        g, active, src = random_instance(seed)
        pot = np.random.default_rng(seed + 1000).random(g.n).tolist()
        run = run_min_exposure(g, active, src, pot)
        best = centralized_min_exposure(g, active, src, pot)
        assert run.value == best, f"seed {seed}"


def test_min_exposure_sender_order_does_not_change_values():
    # rounds are synchronous, so shuffling the senders of the packet-level
    # reference moves no value, parent, transmission or round count, and
    # the array flood equals it
    g, active, src = random_instance(2)
    pot = np.random.default_rng(99).random(g.n).tolist()
    run = run_min_exposure(g, active, src, pot)
    mask = node_mask(g.n, active)
    base = reference_min_exposure_flood(g, mask, src, pot)
    assert (run.value, run.parent, run.transmissions, run.rounds) == base
    for order_seed in (1, 7):
        assert reference_min_exposure_flood(
            g, mask, src, pot, order_seed=order_seed) == base


def test_inactive_source_rejected(tiny_graph):
    with pytest.raises(ValueError):
        run_bfs_flood(tiny_graph, {1, 2}, 0)
    with pytest.raises(ValueError):
        run_min_exposure(tiny_graph, {1, 2}, 0, [0.0] * 4)
    for form in ({1, 2}, active_graph(tiny_graph, {1, 2})):
        with pytest.raises(ValueError):
            centralized_bfs(tiny_graph, form, 0)
        with pytest.raises(ValueError):
            centralized_min_exposure(tiny_graph, form, 0, [0.0] * 4)


def test_oracle_target_outside_the_nodes_rejected():
    # a negative id would otherwise answer for the last node
    g = build_comm_graph(generate_field(64, 3.0, 0))
    for target in (-1, g.n):
        with pytest.raises(ValueError, match="not a node"):
            centralized_bfs(g, None, 0, target=target)
        with pytest.raises(ValueError, match="not a node"):
            centralized_min_exposure(g, None, 0, [1.0] * g.n, target=target)


def test_hop_oracle_target_on_the_tiny_graph(tiny_graph):
    # 0 to itself, one hop and two hops; then an isolated source, whose
    # search empties its frontier, and a target outside the active set
    cases = ((None, {0: 0.0, 1: 1.0, 2: 2.0}), ({0, 2, 3}, {2: INF, 1: INF}))
    for active, expected in cases:
        for form in (active, active_graph(tiny_graph, active)):
            for dst, hops in expected.items():
                assert centralized_bfs(tiny_graph, form, 0, target=dst) == \
                    hops, (active, dst)


def test_hop_oracle_target_equals_the_full_list_at_scale():
    # the gates' n = 4096, seed 5 field and complex zone: the out-of-zone
    # oracle, with in-zone targets that read inf, and the default-width
    # adaptive skeleton (490 nodes in 30 components on long thin streets),
    # which takes deep levels and answers across components
    world = build_world(Scenario(n=4096, seed=5, zone_kind="complex",
                                 skeleton="adaptive", queries=0))
    g, oracle, search = world.graph, world.oracle, world.skeleton.search
    assert np.unique(search.component_labels).size > 1
    rng = np.random.default_rng(21)
    in_zone = np.flatnonzero(~world.active)
    for graph_search, targets in ((oracle, np.arange(g.n)),
                                  (search, search.ids)):
        answers = []
        for src in rng.choice(graph_search.ids, 20, replace=False).tolist():
            full = centralized_bfs(g, graph_search, src)
            dsts = rng.choice(targets, 25, replace=False).tolist()
            if graph_search is oracle:
                dsts[:3] = rng.choice(in_zone, 3, replace=False).tolist()
            for dst in dsts:
                answers.append(centralized_bfs(g, graph_search, src,
                                               target=dst))
                assert answers[-1] == full[dst], (src, dst)
        finite = [hops for hops in answers if hops < INF]
        assert len(finite) < len(answers) and max(finite) >= 15


def test_bfs_trace_is_frozen(tiny_graph):
    lines: list[str] = []
    run = run_bfs_flood(tiny_graph, None, 0, trace=lines.append)
    assert lines == ["0 0 1 search 1", "1 1 2 search 2", "1 1 3 search 2"]
    assert run.transmissions == [1, 1, 1, 1]
    assert run.rounds == 3
    again: list[str] = []
    run_bfs_flood(tiny_graph, None, 0, trace=again.append)
    assert again == lines


def test_exposure_trace_is_frozen(tiny_graph):
    pot = [0.0, 1.0, 0.5, 0.25]
    lines: list[str] = []
    run = run_min_exposure(tiny_graph, None, 0, pot, trace=lines.append)
    assert lines == ["0 0 1 exposure 1", "1 1 2 exposure 1.5",
                     "1 1 3 exposure 1.25"]
    assert run.value == [0.0, 1.0, 1.5, 1.25]
    assert run.kind is PacketKind.EXPOSURE_SEARCH


def test_potential_phase_recomputation():
    g = build_comm_graph(generate_field(256, 3.0, 6))
    model = PotentialModel(sources=np.array([[3.0, 3.0], [12.0, 13.0]]),
                           beta=2.0, clamp_radius=1.0)
    active = frozenset(v for v in range(g.n) if v % 7 != 0)
    phase = run_potential_phase(g, active, model)
    assert np.array_equal(phase.search.mask, node_mask(g.n, active))
    assert phase.distance_tables.shape == (2, g.n)
    assert not phase.distance_tables.flags.writeable
    assert len(phase.source_nodes) == 2
    expect_packets = 0
    for k, table in enumerate(phase.distance_tables):
        assert table.tolist() == centralized_bfs(g, active,
                                                 phase.source_nodes[k])
        expect_packets += sum(1 for v in active if table[v] != INF)
    assert phase.packets == expect_packets
    for v in range(g.n):
        if v not in active:
            assert phase.potentials[v] == 0.0
            continue
        total = sum(potential_of_distance(model, t[v])
                    for t in phase.distance_tables if t[v] != INF)
        assert phase.potentials[v] == total


def test_potential_phase_needs_active_nodes():
    g = build_comm_graph(generate_field(64, 3.0, 0))
    model = PotentialModel(sources=np.array([[1.0, 1.0]]))
    with pytest.raises(ValueError):
        run_potential_phase(g, frozenset(), model)


def test_extract_path_walks_the_parent_chain():
    g, active, src = random_instance(4)
    run = run_bfs_flood(g, active, src)
    reachable = [v for v in range(g.n) if run.value[v] != INF and v != src]
    dst = reachable[-1]
    route = extract_path(run, dst)
    assert route[0] == src and route[-1] == dst
    assert len(route) - 1 == run.value[dst]
    for a, b in zip(route, route[1:]):
        assert b in g.adj[a]


def test_extract_path_follows_long_random_chains():
    # random chains of far-apart nodes, walked back from their last node
    g = build_comm_graph(generate_field(300, 3.0, 4))
    rng = np.random.default_rng(8)
    for _ in range(50):
        chain = rng.permutation(g.n)[:int(rng.integers(1, 200))]
        parent = np.full(g.n, -1)
        parent[chain[1:]] = chain[:-1]
        value = np.full(g.n, INF)
        value[chain] = np.arange(chain.size)
        run = SimRun(kind=PacketKind.SEARCH, source=int(chain[0]),
                     rounds=chain.size, total_packets=chain.size,
                     search=active_graph(g, None), local_value=value,
                     local_parent=parent, local_tx=np.ones(g.n))
        assert extract_path(run, int(chain[-1])) == tuple(chain.tolist())


def test_extract_path_exposure_measures():
    g, active, src = random_instance(5)
    pot = np.random.default_rng(55).random(g.n).tolist()
    run = run_min_exposure(g, active, src, pot)
    dst = max(v for v in range(g.n) if run.value[v] != INF)
    route = extract_path(run, dst)
    # the packet's accumulated value is the exposure summed along the
    # recovered route
    assert run.value_at(dst) == run.value[dst]
    assert run.value_at(dst) == pytest.approx(sum(pot[v] for v in route),
                                              rel=1e-12)


def test_extract_path_unreachable(tiny_graph):
    run = run_bfs_flood(tiny_graph, {0, 1, 2}, 0)
    assert extract_path(run, 3) == ()


def test_extract_path_guards_against_bad_chains(tiny_graph):
    def run(parent):
        return SimRun(kind=PacketKind.SEARCH, source=0, rounds=3,
                      total_packets=3, search=active_graph(tiny_graph, None),
                      local_value=[0.0, 1.0, 2.0, INF], local_parent=parent,
                      local_tx=[1, 1, 1, 0])

    with pytest.raises(RuntimeError, match="broken"):
        extract_path(run([-1, -1, 1, -1]), 2)
    with pytest.raises(RuntimeError, match="cycle"):
        extract_path(run([-1, 2, 1, -1]), 2)
