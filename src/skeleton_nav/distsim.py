"""Message-granular simulation of the distributed search algorithms.

Everything runs in synchronous rounds over an active subgraph (a node set of
a communication graph).  Within a round, transmissions happen in ascending
sender id and are heard in ascending receiver id, so a rerun is byte
identical; a seeded shuffle of the sender order is available for sensitivity
checks.  Per-node transmission counters make packet costs exact rather than
estimated.

Hop floods run on the BFS kernel over the CSR graph (`field.bfs_tree`).  The
centralized oracles run `scipy.sparse.csgraph` on the active-induced graph,
which `active_graph` builds once and callers may pass in place of the active
set.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra, shortest_path

from .danger import PotentialModel, potential_of_distance
from .field import CommGraph, NodeId, bfs_tree, nearest_node, node_mask

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

    @property
    def total_packets(self) -> int:
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


def _active_mask(graph: CommGraph, active, source: NodeId) -> np.ndarray:
    """Active nodes as a boolean mask (None: all); the source must be one."""
    mask = node_mask(graph.n, active)
    if not (0 <= source < graph.n and mask[source]):
        raise ValueError(f"source {source} is not active")
    return mask


def run_bfs_flood(graph: CommGraph, active, source: NodeId,
                  trace: TraceFn | None = None) -> SimRun:
    """Synchronous flood: every node that hears the packet forwards it once.

    Receivers keep the smallest hop count and take the lowest-id sender as
    parent, so the result equals a centralized BFS.
    """
    return _flood(graph, _active_mask(graph, active, source), source,
                  PacketKind.SEARCH, trace)


def _flood(graph: CommGraph, mask: np.ndarray, source: NodeId,
           kind: PacketKind, trace: TraceFn | None) -> SimRun:
    """One kernel BFS read as a flood, its trace rebuilt from depth and parent.

    Events go by round (the sender's depth), then sender, then receiver.
    """
    dist, parent = bfs_tree(graph, [source], mask)
    reached = np.isfinite(dist)
    value = dist.tolist()
    parents = parent.tolist()
    if trace is not None:
        heard = np.flatnonzero(parent >= 0)
        order = np.lexsort((heard, parent[heard], dist[heard]))
        for v in heard[order].tolist():
            hops = int(value[v])
            trace(f"{hops - 1} {parents[v]} {v} {kind.value} {hops}")
    return SimRun(kind=kind, source=source, value=value, parent=parents,
                  transmissions=reached.astype(int).tolist(),
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
    sub = graph.induced(_active_mask(graph, active, source))
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


def run_potential_phase(graph: CommGraph, active, model: PotentialModel,
                        trace: TraceFn | None = None) -> PotentialPhase:
    """One BFS flood per danger source; hop distance feeds the potential law.

    Every active node ends up knowing its hop distance to each source and its
    summed potential.  Unreached nodes contribute nothing (infinite range).
    """
    mask = node_mask(graph.n, active)
    if not mask.any():
        raise ValueError("no active nodes to flood")
    candidates = np.flatnonzero(mask).tolist()
    source_nodes = []
    tables = []
    packets = 0
    potentials = np.zeros(graph.n)
    for sx, sy in model.sources:
        src = nearest_node(graph.field, (float(sx), float(sy)), candidates)
        source_nodes.append(src)
        run = _flood(graph, mask, src, PacketKind.POTENTIAL_FLOOD, trace)
        tables.append(run.value)
        packets += run.total_packets
        hops = np.asarray(run.value)
        reached = np.isfinite(hops)
        hops = hops[reached].astype(np.int64)
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


@dataclass(frozen=True, eq=False)
class ActiveGraph:
    """An active set as a mask plus its induced unit-weight csgraph matrix."""

    mask: np.ndarray
    matrix: csr_matrix


def active_graph(graph: CommGraph, active) -> ActiveGraph:
    """The oracles' input for a node set (None: every node); build it once."""
    mask = node_mask(graph.n, active)
    return ActiveGraph(mask=mask, matrix=graph.induced(mask))


def _oracle_input(graph: CommGraph, active, source: NodeId) -> csr_matrix:
    if not isinstance(active, ActiveGraph):
        active = active_graph(graph, active)
    _active_mask(graph, active.mask, source)  # rejects an inactive source
    return active.matrix


def centralized_bfs(graph: CommGraph, active, source: NodeId) -> list[float]:
    """Reference hop distances, oracle for the flood (csgraph BFS).

    `active` is a node set (None: every node) or an `ActiveGraph`; the
    source must be active.
    """
    dist = shortest_path(_oracle_input(graph, active, source), method="D",
                         unweighted=True, indices=source)
    return dist.tolist()


def centralized_min_exposure(graph: CommGraph, active, source: NodeId,
                             potentials: Sequence[float]) -> list[float]:
    """Node-weighted Dijkstra, oracle for the exposure flood (csgraph).

    Entering v costs potentials[v], and a virtual node n enters the source
    at potentials[source]; each path is summed from the source outward, as
    the flood sums it, so the values match bit for bit.  Zero potentials
    stay explicit entries, which csgraph keeps as edges.  `active` is a node
    set or an `ActiveGraph`; the source must be active.
    """
    mat = _oracle_input(graph, active, source)
    pot = np.asarray(potentials, dtype=np.float64)
    n = graph.n
    with_entry = csr_matrix(
        (np.append(pot[mat.indices], pot[source]),
         np.append(mat.indices, source), np.append(mat.indptr, mat.nnz + 1)),
        shape=(n + 1, n + 1))
    return dijkstra(with_entry, indices=n)[:n].tolist()
