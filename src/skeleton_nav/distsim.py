"""Message-granular simulation of the distributed search algorithms.

Everything runs in synchronous rounds over an active subgraph (a node set of
a communication graph).  Within a round, transmissions happen in ascending
sender id and are heard in ascending receiver id, so a rerun is byte
identical; a seeded shuffle of the sender order is available for sensitivity
checks.  Per-node transmission counters make packet costs exact rather than
estimated.

Searches take the active subgraph as a node set (None: every node) or as a
prebuilt `field.ActiveGraph`; a node set is turned into one on each call, so
callers that search the same set repeatedly build it once and pass it (a
skeleton's `search`, a world's `oracle`).  The hop flood, the hop oracle and
the potential phase read hop distances off one csgraph BFS order
(`field.hop_distances`), whose cost follows the edges the search reaches;
the flood then takes each node's lowest-id parent from its sorted induced
row.  The exposure flood relaxes in Python over the induced rows, and its
oracle is csgraph's Dijkstra.  The depth-capped, multi-source and masked
searches elsewhere in the package run on `field.bfs_tree`.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .danger import PotentialModel, potential_of_distance
from .field import ActiveGraph, CommGraph, NodeId, active_graph, \
    hop_distances, nearest_node

INF = math.inf

TraceFn = Callable[[str], None]


class PacketKind(Enum):
    SEARCH = "search"            # plain hop-count flood
    EXPOSURE_SEARCH = "exposure" # accumulated-exposure flood
    POTENTIAL_FLOOD = "potential"
    WAKE_UP = "wakeup"


@dataclass(eq=False)
class SimRun:
    """Outcome of one distributed run: per-node state plus packet accounting."""

    kind: PacketKind
    source: NodeId
    value: list[float]           # hop distance or accumulated exposure
    parent: list[NodeId]
    transmissions: list[int]
    rounds: int
    converged: bool = True

    @cached_property
    def total_packets(self) -> int:
        """Transmissions summed once; the per-node counts do not change."""
        return sum(self.transmissions)


@dataclass(frozen=True)
class PathResult:
    """A recovered route with its measures."""

    nodes: tuple[NodeId, ...]
    hops: int
    length: float                # geometric length of the hop sequence
    exposure: float | None
    reachable: bool
    packets: int                 # transmissions spent by the search


def _search_graph(graph: CommGraph, active, source: NodeId) -> ActiveGraph:
    """The search input as an `ActiveGraph`; the source must be active."""
    active = active_graph(graph, active)
    if not (0 <= source < graph.n and active.mask[source]):
        raise ValueError(f"source {source} is not active")
    return active


def run_bfs_flood(graph: CommGraph, active, source: NodeId,
                  trace: TraceFn | None = None) -> SimRun:
    """Synchronous flood: every node that hears the packet forwards it once.

    Receivers keep the smallest hop count and take the lowest-id sender as
    parent, so the result equals a centralized BFS.  The trace is rebuilt
    from depth and parent: events go by round (the sender's depth), then
    sender, then receiver.
    """
    search = _search_graph(graph, active, source)
    dist = hop_distances(search, source)
    # each induced row is sorted, so a heard node's first neighbour one
    # level up is its lowest-id sender
    mat = search.matrix
    rows = np.repeat(np.arange(graph.n), np.diff(mat.indptr))
    depth = dist[rows]
    up = (dist[mat.indices] == depth - 1) & (depth < INF)
    rows, senders = rows[up], mat.indices[up]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    parent = np.full(graph.n, -1, dtype=np.int64)
    parent[rows[first]] = senders[first]
    reached = np.isfinite(dist)
    value = dist.tolist()
    parents = parent.tolist()
    if trace is not None:
        heard = rows[first]
        order = np.lexsort((heard, parent[heard], dist[heard]))
        for v in heard[order].tolist():
            hops = int(value[v])
            trace(f"{hops - 1} {parents[v]} {v} {PacketKind.SEARCH.value} "
                  f"{hops}")
    return SimRun(kind=PacketKind.SEARCH, source=source, value=value,
                  parent=parents, transmissions=reached.astype(int).tolist(),
                  rounds=int(dist[reached].max()) + 1)


def run_min_exposure(graph: CommGraph, active, source: NodeId,
                     potentials: Sequence[float],
                     trace: TraceFn | None = None,
                     order_seed: int | None = None) -> SimRun:
    """Flood where packets accumulate node potentials and only improvements
    propagate.

    Each node remembers the least exposure seen to reach it; a packet that
    does not strictly improve on that is dropped.  A node forwards at most
    once per round, carrying its current best, so transmissions are bounded
    by the number of strict improvements.  The fixed point equals a
    centralized node-weighted shortest path search.
    """
    sub = _search_graph(graph, active, source).matrix
    ptr = sub.indptr.tolist()
    nbrs = sub.indices.tolist()
    n = graph.n
    value = [INF] * n
    parent = [-1] * n
    tx = [0] * n
    value[source] = float(potentials[source])
    scheduled = {source}
    rng = np.random.default_rng(order_seed) if order_seed is not None else None
    rounds = 0
    while scheduled:
        senders = sorted(scheduled)
        if rng is not None:
            rng.shuffle(senders)
        scheduled = set()
        for u in senders:
            tx[u] += 1
            base = value[u]
            for v in nbrs[ptr[u]:ptr[u + 1]]:
                cand = base + potentials[v]
                if cand < value[v]:
                    value[v] = cand
                    parent[v] = u
                    scheduled.add(v)
                    if trace is not None:
                        trace(f"{rounds} {u} {v} "
                              f"{PacketKind.EXPOSURE_SEARCH.value} {cand:.17g}")
        rounds += 1
    return SimRun(kind=PacketKind.EXPOSURE_SEARCH, source=source, value=value,
                  parent=parent, transmissions=tx, rounds=rounds)


@dataclass(eq=False)
class PotentialPhase:
    """Network-wide result of flooding once from every danger source."""

    source_nodes: tuple[NodeId, ...]
    distance_tables: list[list[float]]   # per source, hop distances
    potentials: list[float]              # summed over sources at each node
    packets: int


def run_potential_phase(graph: CommGraph, active, model: PotentialModel
                        ) -> PotentialPhase:
    """One BFS flood per danger source; hop distance feeds the potential law.

    Every active node ends up knowing its hop distance to each source and its
    summed potential.  Unreached nodes contribute nothing (infinite range).
    `active` is a node set or an `ActiveGraph`.
    """
    active = active_graph(graph, active)
    candidates = np.flatnonzero(active.mask).tolist()
    if not candidates:
        raise ValueError("no active nodes to flood")
    source_nodes = []
    tables = []
    packets = 0
    potentials = np.zeros(graph.n)
    for sx, sy in model.sources:
        src = nearest_node(graph.field, (float(sx), float(sy)), candidates)
        source_nodes.append(src)
        dist = hop_distances(active, src)
        tables.append(dist.tolist())
        reached = np.isfinite(dist)
        packets += int(reached.sum())  # every reached node forwards once
        hops = dist[reached].astype(np.int64)
        # the law evaluated once per hop count, then added source by source
        law = np.array([potential_of_distance(model, float(d))
                        for d in range(int(hops.max()) + 1)])
        potentials[reached] += law[hops]
    return PotentialPhase(source_nodes=tuple(source_nodes),
                          distance_tables=tables,
                          potentials=potentials.tolist(), packets=packets)


def extract_path(run: SimRun, destination: NodeId, graph: CommGraph,
                 potentials: Sequence[float] | None = None) -> PathResult:
    """Walk parents back from the destination and measure the route."""
    if run.value[destination] == INF:
        return PathResult(nodes=(), hops=0, length=0.0, exposure=None,
                          reachable=False, packets=run.total_packets)
    chain = [destination]
    node = destination
    for _ in range(graph.n + 1):
        if node == run.source:
            break
        node = run.parent[node]
        if node == -1:
            raise RuntimeError("broken parent chain")
        chain.append(node)
    else:
        raise RuntimeError("parent chain has a cycle")
    chain.reverse()
    pos = graph.field.positions
    length = 0.0
    for a, b in zip(chain, chain[1:]):
        length += float(np.hypot(*(pos[a] - pos[b])))
    exposure = None
    if potentials is not None:
        exposure = float(sum(potentials[v] for v in chain))
    elif run.kind is PacketKind.EXPOSURE_SEARCH:
        exposure = float(run.value[destination])
    return PathResult(nodes=tuple(chain), hops=len(chain) - 1, length=length,
                      exposure=exposure, reachable=True,
                      packets=run.total_packets)


def centralized_bfs(graph: CommGraph, active, source: NodeId) -> list[float]:
    """Reference hop distances, oracle for the flood (csgraph BFS order).

    `active` is a node set (None: every node) or an `ActiveGraph`; the
    source must be active.
    """
    return hop_distances(_search_graph(graph, active, source), source).tolist()


def centralized_min_exposure(graph: CommGraph, active, source: NodeId,
                             potentials: Sequence[float]) -> list[float]:
    """Node-weighted Dijkstra, oracle for the exposure flood (csgraph).

    Entering v costs potentials[v], and a virtual node n enters the source
    at potentials[source]; each path is summed from the source outward, as
    the flood sums it, so the values match bit for bit.  Zero potentials
    stay explicit entries, which csgraph keeps as edges.  `active` is a node
    set or an `ActiveGraph`; the source must be active.
    """
    mat = _search_graph(graph, active, source).matrix
    pot = np.asarray(potentials, dtype=np.float64)
    n = graph.n
    with_entry = csr_matrix(
        (np.append(pot[mat.indices], pot[source]),
         np.append(mat.indices, source), np.append(mat.indptr, mat.nnz + 1)),
        shape=(n + 1, n + 1))
    return dijkstra(with_entry, indices=n)[:n].tolist()
