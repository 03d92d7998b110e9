"""Message-granular simulation of the distributed search algorithms.

Everything runs in synchronous rounds over an active subgraph (a node set of
a communication graph).  Packets are read against start-of-round state and
ties go to the lowest-id sender, so no value, parent or count depends on the
order in which senders go.  Per-node transmission counters make packet
costs exact rather than estimated.

Searches take the active subgraph as a node set (None: every node) or as a
prebuilt `field.ActiveGraph`; a node set is turned into one on each call, so
callers that search the same set repeatedly build it once and pass it (a
skeleton's `search`, a world's `oracle`).  The floods run on the search
graph's local ids: their state is k-length for a set of k nodes, and a
`SimRun` keeps it, building the n-length `value`, `parent` and
`transmissions` lists only when they are read; `extract_path` walks the
local parents and returns the route's node ids.  Trace lines name nodes by
node id.  The hop flood, the hop oracle's table and the potential phase read
hop distances off one csgraph BFS order (`field.hop_distances`), whose cost
follows the edges the search reaches; the flood takes each node's lowest-id
parent from its induced row (`field.lowest_parents`).  Only a traced flood
of either kind finds its parents while it runs: an untraced one's `SimRun`
derives them on first read, and a query reads none, only the values.  The
potential phase keeps the search graph it flooded beside its per-source hop
tables, and the Voronoi band (`adaptive.detect_voronoi_nodes`) is read off
them, so a world floods from each danger source once.  The exposure flood
runs each round as a few array steps over the frontier's rows of the search
graph's padded neighbour table (`ActiveGraph.neighbor_table`); untraced, it
keeps no parents, and its `SimRun` derives them by running the rounds
again.  Its oracle is csgraph's Dijkstra on node weights over the search
graph's own index arrays (`oracle_weights`), with the source's potential
added to its row for the search.  For read-only potentials, such as a
world's, the search graph keeps the weights, gathered on the first call,
so a world gathers them once.

Node order: over part of the network a search graph's local ids follow
space order (see `field`), its rows list neighbours by node id, and every
tie goes to the lowest node id, never to the lowest local id.  The
exposure flood's parents and both floods' trace order compare node ids,
so no result depends on the numbering.

Both oracles return the full n-length table by default.  Given a `target`
they answer for that node alone: the hop oracle grows two balls, from the
source and from the target, until they touch (`field.hops_between`), and
the exposure oracle also takes a `limit` at which Dijkstra stops.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from .danger import PotentialModel, potential_of_distance
from .field import ActiveGraph, CommGraph, NodeId, active_graph, \
    hop_distances, hops_between, lowest_parents, nearest_node, spread

INF = math.inf

TraceFn = Callable[[str], None]


class PacketKind(Enum):
    SEARCH = "search"            # plain hop-count flood
    EXPOSURE_SEARCH = "exposure" # accumulated-exposure flood


@dataclass(eq=False)
class SimRun:
    """Outcome of one distributed run: per-node state plus packet accounting.

    The state is held per local id of the search graph `search`: each
    node's value, its parent's local id (-1: none) and its transmission
    count.  An untraced flood, hop or exposure, leaves `local_parent`
    None, and `parents()` derives it on first read.  `value`, `parent` and
    `transmissions` spread the state over all n nodes, built on first
    read.
    """

    kind: PacketKind
    source: NodeId
    rounds: int
    total_packets: int
    search: ActiveGraph
    local_value: Sequence[float]   # hop distance or accumulated exposure
    local_parent: Sequence[int] | None  # None: derived on first read
    local_tx: Sequence[int]
    _derive_parent: Callable[[], np.ndarray] | None = field(
        default=None, init=False, repr=False)

    @property
    def ids(self) -> np.ndarray:
        """Local id -> node id."""
        return self.search.ids

    @property
    def n(self) -> int:
        return self.search.mask.size

    def local(self, node: NodeId) -> int:
        """The local id of a node, or -1 if the search graph lacks it."""
        return self.search.index(node)

    def value_at(self, node: NodeId) -> float:
        """One node's value, read from the local state (inf: unreached)."""
        i = self.local(node)
        return INF if i < 0 else float(self.local_value[i])

    def parents(self) -> Sequence[int]:
        """The local parents, derived on the first call if not kept."""
        if self.local_parent is None:
            self.local_parent = self._derive_parent()
        return self.local_parent

    @cached_property
    def value(self) -> list[float]:
        return spread(self.ids, self.local_value, self.n, INF)

    @cached_property
    def parent(self) -> list[NodeId]:
        local = np.asarray(self.parents(), dtype=np.int64)
        return spread(self.ids, np.where(local >= 0, self.ids[local], -1),
                      self.n, -1)

    @cached_property
    def transmissions(self) -> list[int]:
        return spread(self.ids, self.local_tx, self.n, 0)


def _search_graph(graph: CommGraph, active, source: NodeId,
                  target: NodeId | None = None) -> tuple[ActiveGraph, int]:
    """The search input as an `ActiveGraph` and the source's local id; the
    source must be active, and a target, if given, a node."""
    active = active_graph(graph, active)
    if not (0 <= source < graph.n and active.mask[source]):
        raise ValueError(f"source {source} is not active")
    if target is not None and not 0 <= target < graph.n:
        raise ValueError(f"target {target} is not a node")
    return active, active.index(source)


def run_bfs_flood(graph: CommGraph, active, source: NodeId,
                  trace: TraceFn | None = None) -> SimRun:
    """Synchronous flood: every node that hears the packet forwards it once.

    Receivers keep the smallest hop count and take the lowest-id sender as
    parent, so the result equals a centralized BFS.  The trace is rebuilt
    from depth and parent: events go by round (the sender's depth), then
    sender, then receiver.  Only a trace needs the parents up front; an
    untraced run's `SimRun` derives them from the depths on first read (a
    query reads none).
    """
    search, s = _search_graph(graph, active, source)
    dist = hop_distances(search, s)
    reached = np.isfinite(dist)
    parent = None
    if trace is not None:
        parent = lowest_parents(search, dist)
        heard = np.flatnonzero(parent >= 0)
        ids = search.ids
        u, v = ids[parent[heard]], ids[heard]
        order = np.lexsort((v, u, dist[heard]))
        for hops, a, b in zip(dist[heard][order].astype(int).tolist(),
                              u[order].tolist(), v[order].tolist()):
            trace(f"{hops - 1} {a} {b} {PacketKind.SEARCH.value} {hops}")
    run = SimRun(kind=PacketKind.SEARCH, source=source,
                 rounds=int(dist[reached].max()) + 1,
                 total_packets=int(np.count_nonzero(reached)),
                 search=search, local_value=dist, local_parent=parent,
                 local_tx=reached.astype(np.int64))
    if parent is None:
        run._derive_parent = lambda: lowest_parents(search, dist)
    return run


def run_min_exposure(graph: CommGraph, active, source: NodeId,
                     potentials: Sequence[float] | np.ndarray,
                     trace: TraceFn | None = None) -> SimRun:
    """Synchronous Bellman-Ford: packets accumulate node potentials, and
    only improvements propagate.

    The source sends in round 0, and every node whose value improved in a
    round sends once in the next.  A receiver keeps the least offer (a
    sender's start-of-round value plus its own potential) that beats its
    start-of-round value, with the lowest-id such sender as parent.  The
    fixed point equals a centralized node-weighted shortest path search.
    Trace lines go one per improved receiver, by round, sender, receiver.

    Only a trace needs the parents while the flood runs, since every line
    names one.  An untraced run leaves them out of its rounds, and its
    `SimRun` derives them on first read by running the rounds again with
    them kept; a query reads none.
    """
    search, src = _search_graph(graph, active, source)
    pot = np.asarray(potentials, dtype=np.float64)[search.ids]
    value, tx, rounds, parent = _exposure_rounds(search, src, pot,
                                                 trace is not None, trace)
    run = SimRun(kind=PacketKind.EXPOSURE_SEARCH, source=source,
                 rounds=rounds, total_packets=int(tx.sum()), search=search,
                 local_value=value, local_parent=parent, local_tx=tx)
    if parent is None:
        run._derive_parent = lambda: _exposure_rounds(search, src, pot,
                                                      True)[3]
    return run


def _exposure_rounds(search: ActiveGraph, src: int, pot: np.ndarray,
                     keep_parents: bool, trace: TraceFn | None = None
                     ) -> tuple:
    """The exposure flood's rounds from local id `src`: local values,
    transmissions, the round count and, if kept (always with a trace), the
    local parents (-1: none).  Each round reads its frontier's rows off the
    search graph's padded neighbour table, in node-id order as the CSR
    lists them, and drops the padding in one mask.  Parents are kept as
    node ids while the flood runs, so that the lowest-id sender wins
    whatever the local numbering.  Every sender transmits once per round
    it is in the frontier, counted after the last round.
    """
    table = search.neighbor_table
    degree = np.diff(search.matrix.indptr)
    ids, n = search.ids, search.mask.size
    k = ids.size
    value = np.full(k, INF)
    value[src] = pot[src]
    parent = np.full(k, -1) if keep_parents else None
    frontier = np.array([src])
    sent = []  # each round's frontier
    rounds = 0
    while frontier.size:
        sent.append(frontier)
        rows = table.take(frontier, axis=0)
        # the sentinel k pads the rows; intp indices spare each use a cast
        receivers = rows[rows < k].astype(np.intp)
        counts = degree.take(frontier)
        cand = value.take(frontier).repeat(counts) + pot.take(receivers)
        before = value.copy()
        np.minimum.at(value, receivers, cand)
        improved = value < before
        senders, frontier = frontier, improved.nonzero()[0]
        if parent is not None:
            won = (cand == value.take(receivers)) & improved.take(receivers)
            parent[frontier] = n  # node-id parents, lowest wins
            np.minimum.at(parent, receivers[won],
                          ids.take(senders.repeat(counts)[won]))
        if trace is not None:
            u, v = parent[frontier], ids[frontier]
            order = np.lexsort((v, u))
            for a, b, x in zip(u[order].tolist(), v[order].tolist(),
                               value[frontier[order]].tolist()):
                trace(f"{rounds} {a} {b} "
                      f"{PacketKind.EXPOSURE_SEARCH.value} {x:.17g}")
        rounds += 1
    tx = np.bincount(np.concatenate(sent), minlength=k)
    if parent is not None:
        parent = np.where(parent >= 0, search.local.take(parent), -1)
    return value, tx, rounds, parent


@dataclass(eq=False)
class PotentialPhase:
    """Network-wide result of flooding once from every danger source over
    the search graph `search`."""

    search: ActiveGraph
    source_nodes: tuple[NodeId, ...]
    distance_tables: np.ndarray   # (sources, n) hop distances, read-only
    potentials: np.ndarray        # (n,) summed over sources, read-only
    packets: int


def run_potential_phase(graph: CommGraph, active, model: PotentialModel
                        ) -> PotentialPhase:
    """One BFS flood per danger source; hop distance feeds the potential law.

    Every active node ends up knowing its hop distance to each source and its
    summed potential.  Unreached nodes contribute nothing (infinite range).
    `active` is a node set or an `ActiveGraph`.  The floods run in local
    ids; the tables and the summed potentials each fill one array.
    """
    active = active_graph(graph, active)
    ids = active.ids
    if not ids.size:
        raise ValueError("no active nodes to flood")
    source_nodes = []
    tables = np.full((len(model.sources), graph.n), INF)
    packets = 0
    potentials = np.zeros(graph.n)
    for table, (sx, sy) in zip(tables, model.sources):
        src = nearest_node(graph.field, (float(sx), float(sy)), ids)
        source_nodes.append(src)
        dist = hop_distances(active, active.index(src))
        table[ids] = dist
        reached = np.isfinite(dist)
        packets += int(reached.sum())  # every reached node forwards once
        hops = dist[reached].astype(np.int64)
        # the law evaluated once per hop count, then added source by source
        law = np.array([potential_of_distance(model, float(d))
                        for d in range(int(hops.max()) + 1)])
        potentials[ids[reached]] += law[hops]
    for arr in (tables, potentials):
        arr.setflags(write=False)
    return PotentialPhase(search=active, source_nodes=tuple(source_nodes),
                          distance_tables=tables, potentials=potentials,
                          packets=packets)


def extract_path(run: SimRun, destination: NodeId) -> tuple[NodeId, ...]:
    """The route's node ids from the source to the destination, walked back
    along the run's local parents, so it costs the route's length; empty
    when the destination is unreached."""
    node = run.local(destination)
    if node < 0 or run.local_value[node] == INF:
        return ()
    source = run.local(run.source)
    parents = run.parents()
    chain = [node]
    for _ in range(run.ids.size + 1):
        if node == source:
            break
        node = int(parents[node])
        if node == -1:
            raise RuntimeError("broken parent chain")
        chain.append(node)
    else:
        raise RuntimeError("parent chain has a cycle")
    return tuple(run.ids[chain[::-1]].tolist())


def centralized_bfs(graph: CommGraph, active, source: NodeId, *,
                    target: NodeId | None = None) -> list[float] | float:
    """Reference hop distances, oracle for the flood.

    `active` is a node set (None: every node) or an `ActiveGraph`; the
    source must be active.  Without a target the result is the list over
    all n nodes, from one csgraph BFS.  With one it is the hop distance to
    the target alone (inf: unreached), from a meet-in-the-middle search
    (`field.hops_between`) whose two balls each reach about half way.
    """
    search, s = _search_graph(graph, active, source, target)
    if target is None:
        return spread(search.ids, hop_distances(search, s), graph.n, INF)
    if not search.mask[target]:
        return INF
    return hops_between(search, s, search.index(target))


def oracle_weights(search: ActiveGraph,
                   potentials: Sequence[float] | np.ndarray
                   ) -> tuple[np.ndarray, csr_matrix]:
    """The exposure oracle's node weights on a search graph: the members'
    potentials by local id, and a matrix whose entry (u, v) is v's
    potential, sharing the search graph's `indices` and `indptr` (8 bytes
    per entry).  Zero potentials stay explicit entries, which csgraph
    keeps as edges.

    The search graph keeps one set, for the last potentials array passed
    that nothing can write (it and every array it views read-only), such
    as a world's.  Any other array is gathered on every call, so a caller
    that mutates its potentials never reads stale weights.
    """
    slot = search.weight_slot
    if slot and slot[0] is potentials:
        return slot[1], slot[2]
    mat = search.matrix
    pot = np.asarray(potentials, dtype=np.float64)[search.ids]
    weighted = csr_matrix((pot.take(mat.indices), mat.indices, mat.indptr),
                          shape=mat.shape, copy=False)
    if _frozen(potentials):
        slot[:] = (potentials, pot, weighted)
    return pot, weighted


def _frozen(arr) -> bool:
    """Whether arr is an array that no array can write: it and every
    array it views are read-only, down to one that owns its data."""
    while isinstance(arr, np.ndarray):
        if arr.flags.writeable:
            return False
        arr = arr.base
    return arr is None


def centralized_min_exposure(graph: CommGraph, active, source: NodeId,
                             potentials: Sequence[float] | np.ndarray, *,
                             target: NodeId | None = None,
                             limit: float | None = None
                             ) -> list[float] | float:
    """Node-weighted Dijkstra, oracle for the exposure flood (csgraph).

    Entering v costs potentials[v] (`oracle_weights`).  For the search the
    source's row also carries the source's own potential; the row is
    gathered back from the potentials afterwards, even if the search
    fails, so calls on one search graph must not overlap.  Float addition
    commutes, so each path is summed from the source outward,
    (pot[source] + pot[v1]) + pot[v2], as the flood sums it, and the
    values match bit for bit.  `active` is a node set or an `ActiveGraph`;
    the source must be active.

    Without a target the result is the list over all n nodes; with one it
    is the exposure at the target alone (inf: unreached, and at once,
    without a search, for a target outside the search graph).  The source
    reads its own potential.  `limit` stops the search at that exposure:
    nodes within it keep their exact values, and the others read inf, the
    source too if its own potential passes the limit.
    """
    search, s = _search_graph(graph, active, source, target)
    if target is not None and not search.mask[target]:
        return INF
    pot, weighted = oracle_weights(search, potentials)
    cap = INF if limit is None else limit
    lo, hi = weighted.indptr[s], weighted.indptr[s + 1]
    row = weighted.data[lo:hi]  # a view: the source's row
    row += pot[s]
    try:
        dist = dijkstra(weighted, indices=s, limit=cap)
    finally:
        pot.take(weighted.indices[lo:hi], out=row)
    dist[s] = pot[s] if pot[s] <= cap else INF
    if target is None:
        return spread(search.ids, dist, graph.n, INF)
    return float(dist[search.index(target)])
