"""Random sensor fields and the radio-range communication graph on top of them.

A field of n sensors is dropped uniformly into a sqrt(n) x sqrt(n) square, so
the expected node density is one sensor per unit area regardless of n.  Two
sensors can talk iff their Euclidean distance is at most the radio range.  All
randomness goes through numpy's seeded PCG64 generator, so a (n, r, seed)
triple regenerates the identical field bit for bit.

The graph is stored as CSR arrays, and hop searches run on one of two BFS
engines over them:

* `bfs_tree`, a level-synchronous numpy BFS over a node mask, serves
  `hop_bfs` and the searches that need several sources, a depth cap or a
  parent chain on a mask built for one use: the expanding-ring attach,
  perimeter streets and street pruning.
* `hop_distances`, scipy's `csgraph.breadth_first_order` on an
  `ActiveGraph` (a node set's mask plus its induced matrix, built once and
  reused), serves the single-source searches that run to full depth: the
  skeleton hop flood, the centralized hop oracle, the potential phase and
  the Voronoi hop tables.  Its cost follows the edges it reaches, so a
  search over a skeleton costs time in proportion to the skeleton.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components
from scipy.spatial import cKDTree

INF = math.inf

NodeId = int


@dataclass(frozen=True, eq=False)
class SensorField:
    """Sensor positions in a side x side square, density ~1 per unit area."""

    n: int
    side: float
    radio_range: float
    seed: int
    positions: np.ndarray  # (n, 2) float64, read-only

    def __post_init__(self) -> None:
        pos = np.ascontiguousarray(self.positions, dtype=np.float64)
        if pos.shape != (self.n, 2):
            raise ValueError(f"positions must be ({self.n}, 2), got {pos.shape}")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    def position(self, node: NodeId) -> tuple[float, float]:
        x, y = self.positions[node]
        return float(x), float(y)

    def distance(self, u: NodeId, v: NodeId) -> float:
        return float(np.hypot(*(self.positions[u] - self.positions[v])))


def generate_field(n: int, radio_range: float, seed: int) -> SensorField:
    """Drop n sensors uniformly into a sqrt(n)-sided square.

    Rejects degenerate inputs (fewer than 4 nodes, non-positive range).
    """
    if n < 4:
        raise ValueError(f"need at least 4 sensors, got {n}")
    if radio_range <= 0:
        raise ValueError(f"radio range must be positive, got {radio_range}")
    side = math.sqrt(n)
    rng = np.random.default_rng(seed)
    positions = rng.uniform(0.0, side, size=(n, 2))
    return SensorField(n=n, side=side, radio_range=radio_range, seed=seed,
                       positions=positions)


@dataclass(frozen=True, eq=False)
class CommGraph:
    """Undirected communication graph: edge iff distance <= radio range.

    Stored as CSR arrays: the neighbours of node u are
    ``indices[indptr[u]:indptr[u + 1]]``, sorted ascending, without self
    loops.  Both arrays are read-only.
    """

    field: SensorField
    indptr: np.ndarray   # (n + 1,) int64 row offsets
    indices: np.ndarray  # (2 * edges,) int32 neighbour ids

    def __post_init__(self) -> None:
        for arr in (self.indptr, self.indices):
            arr.setflags(write=False)

    @property
    def n(self) -> int:
        return self.field.n

    def neighbors(self, node: NodeId) -> tuple[NodeId, ...]:
        return tuple(self.indices[self.indptr[node]:self.indptr[node + 1]]
                     .tolist())

    def degree(self, node: NodeId) -> int:
        return int(self.indptr[node + 1] - self.indptr[node])

    def edge_count(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def adj(self) -> tuple[tuple[NodeId, ...], ...]:
        """Read-only tuple-of-tuples view of the rows, for tests and eyes."""
        rows = np.split(self.indices, self.indptr[1:-1])
        return tuple(tuple(row.tolist()) for row in rows)

    def neighbor_runs(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Degrees of `nodes` and their neighbour rows, concatenated in order."""
        starts = self.indptr[nodes]
        counts = self.indptr[nodes + 1] - starts
        offsets = np.cumsum(counts) - counts  # where each row lands
        pos = np.arange(counts.sum()) + np.repeat(starts - offsets, counts)
        return counts, self.indices[pos]

    def induced(self, mask: np.ndarray) -> csr_matrix:
        """Unit-weight matrix of the edges with both ends in mask."""
        members = np.flatnonzero(mask)
        counts, nbrs = self.neighbor_runs(members)
        keep = mask[nbrs]
        rows = np.repeat(members, counts)[keep]
        indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=self.n), out=indptr[1:])
        return csr_matrix((np.ones(len(rows)), nbrs[keep], indptr),
                          shape=(self.n, self.n))


def build_comm_graph(field: SensorField) -> CommGraph:
    """Connect every pair of sensors within radio range (inclusive).

    Uses a k-d tree for the pair query; the result is identical to the
    quadratic all-pairs check.  Each pair becomes two directed entries,
    sorted by (row, column) through one int64 key.
    """
    n = field.n
    pairs = cKDTree(field.positions).query_pairs(field.radio_range,
                                                output_type="ndarray")
    i, j = pairs.T.astype(np.int64)
    key = np.concatenate((i * n + j, j * n + i))
    key.sort()
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    return CommGraph(field=field, indptr=indptr,
                     indices=(key % n).astype(np.int32))


BlockedSpec = Callable[[NodeId], bool] | Collection[NodeId] | None


def node_mask(n: int, nodes: Collection[NodeId] | np.ndarray | None
              ) -> np.ndarray:
    """Boolean mask of length n (None: every node); masks pass through."""
    if nodes is None:
        return np.ones(n, dtype=bool)
    if isinstance(nodes, np.ndarray) and nodes.dtype == bool:
        return nodes
    mask = np.zeros(n, dtype=bool)
    mask[np.fromiter(nodes, dtype=np.int64, count=len(nodes))] = True
    return mask


@dataclass(frozen=True, eq=False)
class ActiveGraph:
    """A node set as a mask plus its induced unit-weight csgraph matrix."""

    mask: np.ndarray
    matrix: csr_matrix

    @cached_property
    def component_sizes(self) -> np.ndarray:
        """Per node, the size of its connected component (inactive: 1).

        A search from an active node reaches exactly its component.
        """
        _, labels = connected_components(self.matrix, directed=False)
        return np.bincount(labels)[labels]


def active_graph(graph: CommGraph, active) -> ActiveGraph:
    """The search graph of a node set (None: every node); build it once.

    An `ActiveGraph` passes through unchanged.
    """
    if isinstance(active, ActiveGraph):
        return active
    mask = node_mask(graph.n, active)
    return ActiveGraph(mask=mask, matrix=graph.induced(mask))


def hop_distances(search: ActiveGraph, source: NodeId) -> np.ndarray:
    """Float64 hop distances from source in the active set (inf: unreached).

    One csgraph BFS gives the reached nodes in visiting order.  Along that
    order the predecessors' positions never decrease, so level d + 1 ends
    where the predecessors leave level d: one binary search per level.
    """
    order, pred = breadth_first_order(search.matrix, source, directed=True,
                                      return_predecessors=True)
    pos = np.empty(len(search.mask), dtype=np.int64)
    pos[order] = np.arange(order.size)
    up = pos[pred[order[1:]]]  # predecessor position of order[1:]
    depth = np.zeros(order.size)
    end = 1  # level 0 is order[:1], the source
    level = 0
    while end < order.size:
        nxt = int(np.searchsorted(up, end)) + 1
        level += 1
        depth[end:nxt] = level
        end = nxt
    dist = np.full(len(search.mask), INF)
    dist[order] = depth
    return dist


def bfs_tree(graph: CommGraph, sources, allowed: np.ndarray | None = None,
             max_depth: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Level-synchronous BFS over the CSR arrays, with a mask.

    Sources sit at depth 0 even outside `allowed` (None allows every node);
    other nodes are entered only if allowed, and no deeper than max_depth.
    Frontiers are sorted, so a node's first sender is its lowest-id
    predecessor and becomes its parent.  Returns float64 depths (inf:
    unreached) and int64 parents (-1 for sources and unreached nodes).
    """
    dist = np.full(graph.n, INF)
    parent = np.full(graph.n, -1, dtype=np.int64)
    closed = np.zeros(graph.n, dtype=bool) if allowed is None else ~allowed
    frontier = np.unique(np.asarray(sources, dtype=np.int64))
    closed[frontier] = True
    dist[frontier] = 0.0
    depth = 0
    while frontier.size and (max_depth is None or depth < max_depth):
        counts, nbrs = graph.neighbor_runs(frontier)
        fresh = ~closed[nbrs]
        senders = np.repeat(frontier, counts)[fresh]
        # np.unique sorts stably, so `first` points at the lowest sender
        frontier, first = np.unique(nbrs[fresh], return_index=True)
        depth += 1
        closed[frontier] = True
        dist[frontier] = depth
        parent[frontier] = senders[first]
    return dist, parent


def hop_bfs(graph: CommGraph, source: NodeId,
            blocked: BlockedSpec = None) -> tuple[list[float], list[NodeId]]:
    """Hop distances and parents from source, skipping blocked nodes.

    Unreachable nodes get distance inf and parent -1.  Among equally close
    predecessors the lowest node id becomes the parent, which keeps reruns
    byte-identical.
    """
    if source < 0 or source >= graph.n:
        raise ValueError(f"source {source} out of range")
    if callable(blocked):
        blocked = np.fromiter(map(blocked, range(graph.n)), bool, graph.n)
    allowed = None if blocked is None else ~node_mask(graph.n, blocked)
    if allowed is not None and not allowed[source]:
        raise ValueError(f"source {source} is blocked")
    dist, parent = bfs_tree(graph, [source], allowed)
    return dist.tolist(), parent.tolist()


def nearest_node(field: SensorField, point: tuple[float, float],
                 candidates: Iterable[NodeId] | None = None) -> NodeId:
    """Closest sensor to an arbitrary point; ties go to the lowest id."""
    if candidates is None:
        ids = np.arange(field.n)
    else:
        ids = np.asarray(sorted(candidates), dtype=np.int64)
    if ids.size == 0:
        raise ValueError("no candidate nodes")
    diff = field.positions[ids] - np.asarray(point, dtype=np.float64)
    d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
    # argmin takes the first minimum, which is the lowest id on a tie
    return int(ids[int(np.argmin(d2))])


def is_connected(graph: CommGraph) -> bool:
    return INF not in hop_bfs(graph, 0)[0]


def connectivity_census(n: int, radio_range: float, seeds: Iterable[int]) -> float:
    """Fraction of seeds for which the comm graph comes out connected.

    Diagnostic: with density 1 the graph is almost always disconnected below
    r ~ 1.5 and solidly connected by r = 3.
    """
    seeds = list(seeds)
    hits = 0
    for s in seeds:
        g = build_comm_graph(generate_field(n, radio_range, s))
        if is_connected(g):
            hits += 1
    return hits / len(seeds)


def save_field(field: SensorField, path) -> None:
    """Write a field as text: one header line, then one `id x y` line per node."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(field_text(field))


def field_text(field: SensorField) -> str:
    lines = [f"{field.n} {field.side:.17g} {field.radio_range:.17g} {field.seed}"]
    for i in range(field.n):
        x, y = field.positions[i]
        lines.append(f"{i} {x:.17g} {y:.17g}")
    return "\n".join(lines) + "\n"


def load_field(path) -> SensorField:
    with open(path, "r", encoding="ascii") as fh:
        header = fh.readline().split()
        n = int(header[0])
        side = float(header[1])
        radio_range = float(header[2])
        seed = int(header[3])
        positions = np.empty((n, 2), dtype=np.float64)
        for line in fh:
            parts = line.split()
            if not parts:
                continue
            i = int(parts[0])
            positions[i, 0] = float(parts[1])
            positions[i, 1] = float(parts[2])
    return SensorField(n=n, side=side, radio_range=radio_range, seed=seed,
                       positions=positions)


def adjacency_text(graph: CommGraph) -> str:
    """Canonical text dump of the adjacency, for byte-level comparisons."""
    return "\n".join(
        f"{i}:" + ",".join(map(str, graph.neighbors(i)))
        for i in range(graph.n)
    ) + "\n"
