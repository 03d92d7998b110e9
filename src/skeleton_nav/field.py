"""Random sensor fields and the radio-range communication graph on top of them.

A field of n sensors is dropped uniformly into a sqrt(n) x sqrt(n) square, so
the expected node density is one sensor per unit area regardless of n.  Two
sensors can talk iff their Euclidean distance is at most the radio range.  All
randomness goes through numpy's seeded PCG64 generator, so a (n, r, seed)
triple regenerates the identical field bit for bit.

The graph is stored as CSR arrays, built the first time a neighbour is
asked for: a world whose skeleton needs only positions (a size census) never
builds them.  The build sorts its row-column keys in the k-d tree's own
pair buffer, so it holds little beyond the pairs and the finished arrays.
Every hop search runs over an `ActiveGraph`, which relabels a node set of k
nodes to local ids 0..k-1 and holds its k x k induced matrix, built once
from the members' CSR rows and reused.  A search over it takes and returns
local ids and allocates k-length arrays, so a search over a skeleton costs
time in proportion to the skeleton, not to n.  `hop_distances` reads hop
depths off one `breadth_first_order`, and `lowest_parents` gives each
reached node its lowest-id neighbour one level up, the parent a synchronous
flood gives.  Searches from several sources or to a capped depth (perimeter
streets) are one `dijkstra` call on the same matrix.  All run on scipy's
`csgraph` but `hops_between`, a numpy loop that stops where two balls meet
and reads each level's rows off the search graph's padded neighbour table
(`ActiveGraph.neighbor_table`, built on first use), one `take` per level.
Every search graph is symmetric, being induced from the undirected comm
graph, so its connected components are strong components, found on the
matrix as it is.  Callers needing a table over all n spread the local one.

Node order: over part of the network, local ids follow space order (strips
one radio range high, by x within a strip), so a search that sweeps the
field reads rows that lie close together in memory; over every node they
are the node ids.  Each row lists its neighbours by node id, and every tie
goes to the lowest node id, never to the lowest local id, so no result
depends on the numbering.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field as data_field
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
    loops.  Both arrays are read-only and built together the first time
    either is read.
    """

    field: SensorField

    @cached_property
    def _csr(self) -> tuple[np.ndarray, np.ndarray]:
        indptr, indices = _csr_arrays(self.field)
        for arr in (indptr, indices):
            arr.setflags(write=False)
        return indptr, indices

    @property
    def indptr(self) -> np.ndarray:
        """(n + 1,) int64 row offsets."""
        return self._csr[0]

    @property
    def indices(self) -> np.ndarray:
        """(2 * edges,) int32 neighbour ids."""
        return self._csr[1]

    @property
    def n(self) -> int:
        return self.field.n

    def edge_count(self) -> int:
        return len(self.indices) // 2

    @cached_property
    def adj(self) -> tuple[tuple[NodeId, ...], ...]:
        """Read-only tuple-of-tuples view of the rows, for tests and eyes."""
        rows = np.split(self.indices, self.indptr[1:-1])
        return tuple(tuple(row.tolist()) for row in rows)

    def neighbor_runs(self, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Degrees of `nodes` and their neighbour rows, concatenated in order."""
        return row_runs(self.indptr, self.indices, nodes)

    def border(self, mask: np.ndarray) -> np.ndarray:
        """Sorted ids of the nodes in mask with a neighbour outside it."""
        inside = np.flatnonzero(mask)
        counts, nbrs = self.neighbor_runs(inside)
        return np.unique(np.repeat(inside, counts)[~mask[nbrs]])

    def induced(self, mask: np.ndarray) -> ActiveGraph:
        """The search graph of the k nodes in mask, with the unit-weight
        k x k matrix of the edges among them.

        Over part of the network, local ids follow `space_order`; each row
        keeps its neighbours in node-id order, as the graph's own rows do.
        Over every node the local ids are the node ids and the matrix is
        the graph itself: it shares the read-only `indices`.  The unit
        weights are one broadcast value, so no array of one entry per edge
        is made for them.
        """
        n = self.n
        indptr, indices = self.indptr, self.indices
        if mask.all():
            ids = np.arange(n)
            local = np.arange(n, dtype=np.int32)
        else:
            ids = space_order(self.field, mask)
            local = np.full(n, -1, dtype=np.int32)
            local[ids] = np.arange(ids.size, dtype=np.int32)
            counts, nbrs = self.neighbor_runs(ids)
            nbrs = local.take(nbrs)
            keep = nbrs >= 0
            indices = nbrs[keep]
            del nbrs
            # row i starts after the entries kept in the rows before it
            kept = np.zeros(keep.size + 1, dtype=np.int32)
            np.cumsum(keep, out=kept[1:])
            indptr = kept[np.concatenate(([0], np.cumsum(counts)))]
        for arr in (ids, local):
            arr.setflags(write=False)
        ones = np.broadcast_to(np.float64(1.0), indices.shape)
        k = ids.size
        return ActiveGraph(mask=mask, ids=ids, local=local,
                           matrix=csr_matrix((ones, indices, indptr),
                                             shape=(k, k), copy=False))


def space_order(field: SensorField, mask: np.ndarray) -> np.ndarray:
    """The ids of the nodes in mask in space order.

    Strips one radio range high run bottom to top, and each strip runs by
    x; stable sorts leave equal keys in node-id order.  A node's
    neighbours then sit in its own strip or the next one, so their rows lie
    near its own.  The ids are sorted by x, then by strip: a 16-bit strip
    index, whenever the strip count fits, sorts by radix.
    """
    ids = np.flatnonzero(mask)
    x, y = field.positions[ids].T
    by_x = np.argsort(x, kind="stable")
    ids, strip = ids[by_x], np.floor(y[by_x] / field.radio_range)
    if math.ceil(field.side / field.radio_range) <= np.iinfo(np.int16).max:
        strip = strip.astype(np.int16)
    return ids[np.argsort(strip, kind="stable")]


def row_runs(indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """Lengths of CSR `rows` and their entries, concatenated in order."""
    starts = indptr.take(rows)
    counts = indptr[1:].take(rows) - starts
    offsets = counts.cumsum() - counts  # where each row lands
    pos = np.arange(counts.sum()) + (starts - offsets).repeat(counts)
    return counts, indices.take(pos)


def _csr_arrays(field: SensorField) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows of every pair within radio range (inclusive).

    A k-d tree finds the pairs; the result is identical to the quadratic
    all-pairs check.  Each pair becomes two directed entries, sorted by
    (row, column) as int64 keys.  The keys are built in the tree's own
    (m, 2) pair buffer, viewed as 2m flat keys: pair (i, j) is rewritten
    in place as i * n + j and j * n + i, with a copy of the m first ids as
    the only temporary, then sorted and reduced to columns in that buffer.
    """
    n = field.n
    pairs = cKDTree(field.positions).query_pairs(field.radio_range,
                                                 output_type="ndarray")
    key = pairs.reshape(-1)  # a view: i0, j0, i1, j1, ...
    first, second = pairs[:, 0], pairs[:, 1]
    i = first.copy()
    np.multiply(first, n, out=first)
    first += second  # i * n + j
    np.multiply(second, n, out=second)
    second += i  # j * n + i
    del i  # freed before the int32 columns are made
    key.sort()
    indptr = np.searchsorted(key, np.arange(n + 1, dtype=np.int64) * n)
    np.remainder(key, n, out=key)
    return indptr, key.astype(np.int32)


def build_comm_graph(field: SensorField) -> CommGraph:
    """The graph of every pair of sensors within radio range (inclusive).

    The CSR arrays are built on first use, not here.
    """
    return CommGraph(field=field)


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
    """A node set relabelled to local ids, with its induced matrix.

    Local id i stands for node ``ids[i]``; `local` maps back.  `matrix` is
    the k x k unit-weight csgraph matrix of the edges among the k members,
    so a search over it allocates and returns k-length arrays, whatever n
    is.  `CommGraph.induced` builds it: over part of the network the local
    ids follow space order, over every node they are the node ids.  Rows
    list neighbours by node id, and no code may assume that local ids
    ascend with node ids: a tie goes to the lowest node id.
    """

    mask: np.ndarray     # (n,) bool: members
    ids: np.ndarray      # (k,) int64: local id -> node id, read-only
    local: np.ndarray    # (n,) int32: node id -> local id (-1: not a member)
    matrix: csr_matrix
    # the exposure oracle's kept weights: empty, or [potentials, local
    # potentials, weighted matrix] (see `distsim.oracle_weights`)
    weight_slot: list = data_field(default_factory=list, init=False,
                                   repr=False)

    def index(self, node: NodeId) -> int:
        """The local id of a node, or -1 if it is not a member."""
        return int(self.local[node]) if 0 <= node < self.local.size else -1

    @cached_property
    def neighbor_table(self) -> np.ndarray:
        """Read-only (k + 1, max degree) table of the rows, built on first
        use: row i lists local id i's neighbours in node-id order, as its
        CSR row does, padded with the sentinel k, and row k is all padding.
        int16 while k < 2**15, else int32.  A level of a search is then one
        `take` of its frontier's rows."""
        mat = self.matrix
        k = mat.shape[0]
        degree = np.diff(mat.indptr)
        table = np.full((k + 1, int(degree.max(initial=0))), k,
                        dtype=np.int16 if k < 2**15 else np.int32)
        # the mask is row-major, as the CSR entries are
        table[:k][np.arange(table.shape[1]) < degree[:, None]] = mat.indices
        table.setflags(write=False)
        return table

    @cached_property
    def component_labels(self) -> np.ndarray:
        """Per local id, the label of its connected component.

        Every search graph is induced from the symmetric comm graph, so its
        strong components are its connected components.  csgraph finds
        them on the matrix as it is (Pearce's algorithm, k-length state);
        ``directed=False`` would first build a transposed, weighted copy.
        """
        return connected_components(self.matrix, directed=True,
                                    connection="strong")[1]

    @cached_property
    def component_sizes(self) -> np.ndarray:
        """Per local id, the size of its connected component.

        A search from a member reaches exactly its component.
        """
        labels = self.component_labels
        return np.bincount(labels)[labels]


def active_graph(graph: CommGraph, active) -> ActiveGraph:
    """The search graph of a node set (None: every node); build it once.

    An `ActiveGraph` passes through unchanged.
    """
    if isinstance(active, ActiveGraph):
        return active
    return graph.induced(node_mask(graph.n, active))


def hop_distances(search: ActiveGraph, source: int) -> np.ndarray:
    """Float64 hop distances from a local source, per local id (inf:
    unreached).

    One csgraph BFS gives the reached nodes in visiting order.  Along that
    order the predecessors' positions never decrease, so level d + 1 ends
    where the predecessors leave level d: one binary search per level.
    """
    order, pred = breadth_first_order(search.matrix, source, directed=True,
                                      return_predecessors=True)
    k = search.matrix.shape[0]
    pos = np.empty(k, dtype=np.int64)
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
    dist = np.full(k, INF)
    dist[order] = depth
    return dist


def lowest_parents(search: ActiveGraph, dist: np.ndarray) -> np.ndarray:
    """Per local id, the lowest-id neighbour one level up (-1: none).

    `dist` holds hop distances (inf: unreached).  Induced rows list their
    neighbours by node id, so a node's parent is the first neighbour in its
    row one level up: the lowest-id sender of a synchronous flood, however
    the local ids are numbered.  Only reached rows are read.
    """
    mat = search.matrix
    reached = np.flatnonzero(dist < INF)
    counts, nbrs = row_runs(mat.indptr, mat.indices, reached)
    up = dist.take(nbrs) == np.repeat(dist.take(reached) - 1, counts)
    rows, senders = np.repeat(reached, counts)[up], nbrs[up]
    first = np.ones(rows.size, dtype=bool)
    first[1:] = rows[1:] != rows[:-1]
    parent = np.full(dist.size, -1, dtype=np.int64)
    parent[rows[first]] = senders[first]
    return parent


def hops_between(search: ActiveGraph, s: int, t: int) -> float:
    """Hop distance between local ids s and t (inf: different components).

    Meet in the middle (Pohl 1971): the smaller of the frontiers from s and
    t grows a level, tagging what it reaches with its side, until its rows
    touch the other side (distance: the radii plus 1) or it empties.  Each
    level reads its frontier's rows off `search.neighbor_table`; the
    padding sentinel's tag is neither side, so it never joins a ball."""
    if s == t:
        return 0.0
    table = search.neighbor_table
    k = search.ids.size
    side, slot = np.zeros(k + 1, np.int8), np.empty(k, np.int64)
    side[s], side[t], side[k] = 1, -1, 2
    fronts, radii = [np.array([s]), np.array([t])], [0, 0]
    while fronts[0].size and fronts[1].size:
        i = int(fronts[1].size < fronts[0].size)
        nbrs = table.take(fronts[i], axis=0).ravel()
        seen = side.take(nbrs)
        if (seen == 2 * i - 1).any():  # a node of the other side
            return float(radii[0] + radii[1] + 1)
        new = nbrs[seen == 0]
        pos = np.arange(new.size)
        slot[new] = pos  # each node's last copy keeps its slot: no sort
        fronts[i] = new[slot.take(new) == pos]
        side[fronts[i]] = 1 - 2 * i
        radii[i] += 1
    return INF


def hop_bfs(graph: CommGraph, source: NodeId,
            blocked: Collection[NodeId] | np.ndarray | None = None
            ) -> tuple[list[float], list[NodeId]]:
    """Hop distances and parents from source, skipping blocked nodes.

    `blocked` is a node collection or a boolean mask.  Unreachable nodes
    get distance inf and parent -1.  Among equally close predecessors the
    lowest node id becomes the parent, which keeps reruns byte-identical.
    The package searches with `distsim.run_bfs_flood` instead, whose
    `value` and `parent` are these lists; this one stays while the
    benchmark's tracer (`navbench/tracing.py`) lists it.
    """
    if source < 0 or source >= graph.n:
        raise ValueError(f"source {source} out of range")
    allowed = None if blocked is None else ~node_mask(graph.n, blocked)
    if allowed is not None and not allowed[source]:
        raise ValueError(f"source {source} is blocked")
    search = active_graph(graph, allowed)
    dist = hop_distances(search, search.index(source))
    parent = lowest_parents(search, dist)
    ids = search.ids
    return (spread(ids, dist, graph.n, INF),
            spread(ids, np.where(parent >= 0, ids[parent], -1), graph.n, -1))


def spread(ids: np.ndarray, local, n: int, fill) -> list:
    """Per-local-id values as a list over all n nodes, `fill` elsewhere."""
    out = np.full(n, fill)
    out[ids] = local
    return out.tolist()


def nearest_node(field: SensorField, point: tuple[float, float],
                 candidates: Sequence[NodeId] | np.ndarray | None = None
                 ) -> NodeId:
    """Closest sensor to an arbitrary point; ties go to the lowest id.

    Candidates may come in any order.  Callers that snap many points to the
    same candidates pass them as one int array, built once.
    """
    if candidates is None:
        ids = np.arange(field.n)
    else:
        ids = np.asarray(candidates, dtype=np.int64)
    if ids.size == 0:
        raise ValueError("no candidate nodes")
    diff = field.positions[ids] - np.asarray(point, dtype=np.float64)
    d2 = diff[:, 0] ** 2 + diff[:, 1] ** 2
    return int(ids[d2 == d2.min()].min())
