"""Pure-Python reference searches, kept as independent checks.

The package runs every hop search on `scipy.sparse.csgraph` over an
`ActiveGraph`: the BFS order with depths read off it, each node's lowest-id
parent from its sorted induced row, and Dijkstra for the exposure oracle
and the capped multi-source perimeter search.  These loops walk the
tuple-of-tuples adjacency (`CommGraph.adj`) one neighbour at a time
instead.  `centralized_bfs` and `centralized_min_exposure` are the
package's former oracles, unchanged; `reference_bfs` is the hand-written
level loop the array searches replaced, with several sources and a depth
cap.  `reference_bfs_flood` is the hop flood as it ran over n-length state
and an n x n matrix, before searches were relabelled to local ids, and
`reference_min_exposure_flood` the synchronous exposure flood as a loop
over packets, with a shuffle of the sender order.  `reference_attach` is
the expanding ring as a loop of depth-capped searches, one per lifetime.
`reference_quadtree` is the recursive cell tree refined against
prefix-sum crossing counts, which the crossed-cell pyramid and leaf-level
table replaced; `reference_leaf_at` and `reference_adaptive_awake` walk
it, as the package once did per sensor, with the field border as a
street.  `reference_grid_streets` measures each sensor's distance to every
uniform grid line, where the package bins coordinates and brackets the
few near a line.  `reference_cluster_retirement` is the retirement as
a loop over the sensors of each level, gathering every cell's cluster in
a dict (`clusters_at_level`), before one array pass per level replaced
it.  `reference_points_in_region` is the zone test over every point,
before the bounding-box prefilter;
`reference_sample_queries` draws query points one at a time and tests each
alone with it, as the package did before it tested a whole draw at once.
`reference_perimeter_streets` the perimeter search over the full graph,
before the boundary band.  `reference_csr` is the comm graph from every
pairwise distance, `reference_space_order` the space order as one
`lexsort`, and `reference_component_labels` csgraph's undirected
labelling, which builds a transposed copy of the matrix.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import breadth_first_order, connected_components

from skeleton_nav.adaptive import _pow2_side, build_quadtree, \
    rasterize_region
from skeleton_nav.danger import _EDGE_EPS, DangerZone, boundary_nodes, \
    zone_node_mask
from skeleton_nav.field import ActiveGraph, CommGraph, NodeId, \
    SensorField, nearest_node
from skeleton_nav.harness import ScenarioError, World, \
    _main_street_component

INF = math.inf


def _active_set(graph: CommGraph, active) -> frozenset[NodeId]:
    if active is None:
        return frozenset(range(graph.n))
    return active if isinstance(active, frozenset) else frozenset(active)


def reference_bfs(graph: CommGraph, sources, allowed=None,
                  max_depth: int | None = None
                  ) -> tuple[list[float], list[NodeId]]:
    """Level loop: sources at depth 0, lowest-id discoverer as parent.

    Sources count as reached whatever `allowed` says; other nodes are
    entered only if allowed (None allows all) and at most max_depth hops
    out.
    """
    dist: list[float] = [INF] * graph.n
    parent: list[NodeId] = [-1] * graph.n
    level = sorted(set(sources))
    for s in level:
        dist[s] = 0
    d = 0
    while level and (max_depth is None or d < max_depth):
        nxt: list[NodeId] = []
        for u in level:  # ascending ids: first discoverer is the lowest parent
            for v in graph.adj[u]:
                if dist[v] == INF and (allowed is None or allowed[v]):
                    dist[v] = d + 1
                    parent[v] = u
                    nxt.append(v)
        nxt.sort()
        level = nxt
        d += 1
    return dist, parent


def centralized_bfs(graph: CommGraph, active, source: NodeId) -> list[float]:
    """Reference hop distances, oracle for the flood (plain queue BFS)."""
    from collections import deque

    members = _active_set(graph, active)
    dist = [INF] * graph.n
    dist[source] = 0.0
    q = deque([source])
    while q:
        u = q.popleft()
        for v in graph.adj[u]:
            if v in members and dist[v] == INF:
                dist[v] = dist[u] + 1
                q.append(v)
    return dist


def centralized_min_exposure(graph: CommGraph, active, source: NodeId,
                             potentials: Sequence[float]) -> list[float]:
    """Node-weighted Dijkstra, oracle for the exposure flood."""
    import heapq

    members = _active_set(graph, active)
    best = [INF] * graph.n
    best[source] = float(potentials[source])
    heap = [(best[source], source)]
    done = [False] * graph.n
    while heap:
        d, u = heapq.heappop(heap)
        if done[u]:
            continue
        done[u] = True
        for v in graph.adj[u]:
            if v not in members or done[v]:
                continue
            cand = d + potentials[v]
            if cand < best[v]:
                best[v] = cand
                heapq.heappush(heap, (cand, v))
    return best


def reference_bfs_flood(graph: CommGraph, mask: np.ndarray, source: NodeId,
                        trace=None) -> tuple[list, list, list, int]:
    """The hop flood over n-length state: value, parent, transmissions and
    rounds, as the package ran it before its searches were relabelled.

    The induced matrix is n x n with empty rows for nodes outside mask, and
    depths come from the csgraph BFS order, one binary search per level.
    """
    members = np.flatnonzero(mask)
    counts, nbrs = graph.neighbor_runs(members)
    keep = mask[nbrs]
    rows = np.repeat(members, counts)[keep]
    indptr = np.zeros(graph.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=graph.n), out=indptr[1:])
    mat = csr_matrix((np.ones(len(rows)), nbrs[keep], indptr),
                     shape=(graph.n, graph.n))
    order, pred = breadth_first_order(mat, source, directed=True,
                                      return_predecessors=True)
    pos = np.empty(graph.n, dtype=np.int64)
    pos[order] = np.arange(order.size)
    up = pos[pred[order[1:]]]
    depth = np.zeros(order.size)
    end, level = 1, 0
    while end < order.size:
        nxt = int(np.searchsorted(up, end)) + 1
        level += 1
        depth[end:nxt] = level
        end = nxt
    dist = np.full(graph.n, INF)
    dist[order] = depth
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
            trace(f"{hops - 1} {parents[v]} {v} search {hops}")
    return (value, parents, reached.astype(int).tolist(),
            int(dist[reached].max()) + 1)


def reference_min_exposure_flood(graph: CommGraph, mask: np.ndarray,
                                 source: NodeId, potentials: Sequence[float],
                                 trace=None, order_seed: int | None = None
                                 ) -> tuple[list, list, list, int]:
    """The synchronous exposure flood, one packet at a time over n-length
    state and node ids.

    Senders go in ascending id, or in an order shuffled by `order_seed`.
    Every packet is weighed against the receiver's start-of-round value;
    the smallest offer that beats it wins, and among equal offers the
    lowest sender.  A round's trace lines go out by sender, then receiver.
    """
    rows = [[v for v in graph.adj[u] if mask[v]] if mask[u] else []
            for u in range(graph.n)]
    value = [INF] * graph.n
    parent = [-1] * graph.n
    tx = [0] * graph.n
    value[source] = float(potentials[source])
    senders = [source]
    rng = np.random.default_rng(order_seed) if order_seed is not None else None
    rounds = 0
    while senders:
        if rng is not None:
            rng.shuffle(senders)
        offers: dict[NodeId, tuple[float, NodeId]] = {}
        for u in senders:
            tx[u] += 1
            for v in rows[u]:
                cand = value[u] + potentials[v]
                if cand < value[v] and (v not in offers
                                        or (cand, u) < offers[v]):
                    offers[v] = (cand, u)
        for v, (cand, u) in offers.items():
            value[v] = cand
            parent[v] = u
        if trace is not None:
            for v in sorted(offers, key=lambda v: (parent[v], v)):
                trace(f"{rounds} {parent[v]} {v} exposure {value[v]:.17g}")
        senders = sorted(offers)
        rounds += 1
    return value, parent, tx, rounds


def reference_attach(graph: CommGraph, sk, src: NodeId, dst: NodeId
                     ) -> tuple[int, set[NodeId], bool, bool]:
    """The attach step as a ring loop: packets, connectors and both flags.

    An off-street source floods with lifetime 1, 2, 4, ... until a ring
    holds an awake node, or stops when a ring reaches no more nodes than
    the one before; every reached node forwards once per ring.  The
    connectors are the parent chain from the nearest awake node (lowest id
    on ties) back to the source.  An off-street destination wakes every
    active node of its enclosing street cell.
    """
    allowed = (~sk.blocked).tolist()
    packets = 0
    connectors: set[NodeId] = set()
    src_ok = dst_ok = True
    if not sk.awake[src]:
        src_ok = False
        ttl, prev_reached = 1, 0
        while True:
            dist, parent = reference_bfs(graph, [src], allowed, ttl)
            reached = sum(1 for d in dist if d != INF)
            packets += reached
            hits = [v for v in np.flatnonzero(sk.awake).tolist()
                    if dist[v] != INF]
            if hits:
                node = parent[min(hits, key=lambda v: dist[v])]
                while node != -1:
                    connectors.add(node)
                    node = parent[node]
                src_ok = True
                break
            if reached == prev_reached:
                break
            prev_reached = reached
            ttl *= 2
    if not sk.awake[dst] and dst not in connectors:
        if sk.geometry is None:
            cell = {dst}
        else:
            x0, y0, x1, y1 = sk.geometry.enclosing_cell(
                *graph.field.position(dst))
            cell = {v for v, (x, y) in
                    enumerate(graph.field.positions.tolist())
                    if x0 <= x <= x1 and y0 <= y <= y1}
        cell = {v for v in cell if not sk.blocked[v]}
        packets += len(cell)
        connectors |= cell
        dst_ok = dst in cell
    return packets, connectors, src_ok, dst_ok


class _CrossTester:
    """Answers 'does any zone boundary (or danger point) touch this cell?'."""

    def __init__(self, zones, side: int):
        self._side = side
        self._points: list[tuple[float, float]] = []
        vmaps = []
        hmaps = []
        for zone in zones:
            if zone.kind == "points":
                self._points.extend((float(p[0]), float(p[1]))
                                    for p in zone.points)
                continue
            inside = rasterize_region(zone, side)
            padded = np.zeros((side + 2, side), dtype=bool)
            padded[1:side + 1, :] = inside
            vmaps.append(padded[:-1, :] != padded[1:, :])   # (side+1, side)
            padded = np.zeros((side, side + 2), dtype=bool)
            padded[:, 1:side + 1] = inside
            hmaps.append(padded[:, :-1] != padded[:, 1:])   # (side, side+1)
        vv = np.zeros((side + 1, side), dtype=np.int64)
        hh = np.zeros((side, side + 1), dtype=np.int64)
        for v in vmaps:
            vv += v
        for h in hmaps:
            hh += h
        # 2-D prefix sums with a zero border for O(1) rectangle queries
        self._sv = np.zeros((side + 2, side + 1), dtype=np.int64)
        self._sv[1:, 1:] = vv.cumsum(axis=0).cumsum(axis=1)
        self._sh = np.zeros((side + 1, side + 2), dtype=np.int64)
        self._sh[1:, 1:] = hh.cumsum(axis=0).cumsum(axis=1)

    def _rect(self, table, i0, i1, j0, j1) -> int:
        # inclusive index ranges into the underlying indicator grids
        return int(table[i1 + 1, j1 + 1] - table[i0, j1 + 1]
                   - table[i1 + 1, j0] + table[i0, j0])

    def crossed(self, x0: int, y0: int, size: int) -> bool:
        x1 = x0 + size
        y1 = y0 + size
        for px, py in self._points:
            if x0 <= px <= x1 and y0 <= py <= y1:
                return True
        if self._rect(self._sv, x0, x1, y0, y1 - 1) > 0:
            return True
        if self._rect(self._sh, x0, x1 - 1, y0, y1) > 0:
            return True
        return False


@dataclass(eq=False)
class ReferenceCell:
    level: int
    x0: int
    y0: int
    crossed: bool
    children: tuple["ReferenceCell", ...] | None = None

    @property
    def size(self) -> int:
        return 1 << self.level


@dataclass(eq=False)
class ReferenceTree:
    side: int
    root: ReferenceCell
    leaves: tuple[ReferenceCell, ...]
    tester: _CrossTester


def _refine(tester: _CrossTester, level: int, x0: int,
            y0: int) -> ReferenceCell:
    """The cell at (level, x0, y0), split down to every crossed unit cell."""
    crossed = tester.crossed(x0, y0, 1 << level)
    cell = ReferenceCell(level=level, x0=x0, y0=y0, crossed=crossed)
    if crossed and level > 0:
        h = 1 << (level - 1)
        cell.children = (
            _refine(tester, level - 1, x0, y0),
            _refine(tester, level - 1, x0 + h, y0),
            _refine(tester, level - 1, x0, y0 + h),
            _refine(tester, level - 1, x0 + h, y0 + h),
        )
    return cell


def reference_quadtree(zones, side: float) -> ReferenceTree:
    """Split every cell the tester calls crossed, from the root down."""
    if isinstance(zones, DangerZone):
        zones = [zones]
    zones = [z for z in zones if z is not None]
    side_i = _pow2_side(side)
    levels = side_i.bit_length() - 1
    tester = _CrossTester(zones, side_i)
    root = _refine(tester, levels, 0, 0)
    leaves: list[ReferenceCell] = []
    stack = [root]
    while stack:
        cell = stack.pop()
        if cell.children is None:
            leaves.append(cell)
        else:
            stack.extend(cell.children)
    return ReferenceTree(side=side_i, root=root, leaves=tuple(leaves),
                         tester=tester)


def reference_leaf_at(tree: ReferenceTree, x: float,
                      y: float) -> ReferenceCell:
    """Walk from the root; clamp onto the tree, edge points go up."""
    cell = tree.root
    cx = min(max(x, 0.0), tree.side - 1e-9)
    cy = min(max(y, 0.0), tree.side - 1e-9)
    while cell.children is not None:
        h = cell.size // 2
        ix = 1 if cx >= cell.x0 + h else 0
        iy = 1 if cy >= cell.y0 + h else 0
        cell = cell.children[ix + 2 * iy]
    return cell


def reference_adaptive_awake(graph: CommGraph, zone, tree: ReferenceTree,
                             width: float) -> np.ndarray:
    """Mask of the sensors outside the zone within width / 2 of their
    leaf's boundary or of the field's top and right borders (the bottom and
    left ones are leaf edges)."""
    half = width / 2.0
    side = graph.field.side
    mask = zone_node_mask(zone, graph.field.positions)
    awake = np.zeros(graph.n, dtype=bool)
    for i in range(graph.n):
        if mask[i]:
            continue
        x, y = graph.field.positions[i]
        leaf = reference_leaf_at(tree, float(x), float(y))
        s = leaf.size
        margin = min(x - leaf.x0, leaf.x0 + s - x, y - leaf.y0, leaf.y0 + s - y,
                     side - x, side - y)
        if margin <= half:
            awake[i] = True
    return awake


def clusters_at_level(graph: CommGraph, zone, level: int, side: int,
                      width: float) -> dict[tuple[int, int], tuple[NodeId, ...]]:
    """The sorted members of every non-empty cluster of one level, by cell.

    A sensor outside the zone joins the cluster of each cell whose boundary
    lies within half a width of it, so near a shared edge or corner it
    joins several.  The root's cluster also takes the sensors within half
    a width of the field's top and right borders.
    """
    fld = graph.field
    s = 1 << level
    cells = side // s
    half = width / 2.0
    mask = zone_node_mask(zone, fld.positions)
    members: dict[tuple[int, int], list[NodeId]] = {}

    def add(ix: int, iy: int, node: NodeId) -> None:
        if 0 <= ix < cells and 0 <= iy < cells:
            members.setdefault((ix, iy), []).append(node)

    for i in range(fld.n):
        if mask[i]:
            continue
        x, y = fld.positions[i]
        ix = min(int(x // s), cells - 1)
        iy = min(int(y // s), cells - 1)
        dx0 = x - ix * s
        dx1 = (ix + 1) * s - x
        dy0 = y - iy * s
        dy1 = (iy + 1) * s - y
        border = fld.side - max(x, y) if cells == 1 else INF
        if min(dx0, dx1, dy0, dy1, border) <= half:
            add(ix, iy, i)
        if dx0 <= half:
            add(ix - 1, iy, i)
        if dx1 <= half:
            add(ix + 1, iy, i)
        if dy0 <= half:
            add(ix, iy - 1, i)
        if dy1 <= half:
            add(ix, iy + 1, i)
        if math.hypot(dx0, dy0) <= half:
            add(ix - 1, iy - 1, i)
        if math.hypot(dx1, dy0) <= half:
            add(ix + 1, iy - 1, i)
        if math.hypot(dx0, dy1) <= half:
            add(ix - 1, iy + 1, i)
        if math.hypot(dx1, dy1) <= half:
            add(ix + 1, iy + 1, i)
    return {key: tuple(sorted(nodes)) for key, nodes in members.items()}


def reference_cluster_retirement(graph: CommGraph, zone, width: float
                                 ) -> tuple[int, np.ndarray]:
    """Messages and awake mask of the retirement, one cluster at a time.

    Every cluster walks its boundary (one message per member), every
    danger-free one below the root notifies its parent, and the root's
    cluster and those under a crossed parent stay awake.
    """
    fld = graph.field
    tree = build_quadtree([] if zone is None else zone, fld.side)
    levels = tree.levels
    messages = 0
    awake = np.zeros(fld.n, dtype=bool)
    for level in range(levels + 1):
        clusters = clusters_at_level(graph, zone, level, tree.side, width)
        for (ix, iy), members in clusters.items():
            messages += len(members)                  # boundary walk
            if not tree.crossed[level][ix, iy] and level < levels:
                messages += 1                         # notify parent
            if level == levels or tree.crossed[level + 1][ix // 2, iy // 2]:
                awake[list(members)] = True
    return messages, awake


def reference_grid_streets(graph: CommGraph, zone, lines,
                           half: float) -> np.ndarray:
    """Mask of the sensors outside the zone within half of some grid line,
    in x or in y, by their distance to every line."""
    lines = np.asarray(lines, dtype=np.float64)
    pos = graph.field.positions
    near = (np.abs(pos[:, :1] - lines) <= half).any(axis=1) \
        | (np.abs(pos[:, 1:] - lines) <= half).any(axis=1)
    mask = zone_node_mask(zone, pos)
    return near & ~mask


def reference_points_in_region(zone: DangerZone, pts: np.ndarray) -> np.ndarray:
    """Even-odd crossings plus the on-edge test, over every point."""
    pts = np.asarray(pts, dtype=np.float64)
    x = pts[:, 0]
    y = pts[:, 1]
    verts = zone.vertices
    m = len(verts)
    inside = np.zeros(len(pts), dtype=bool)
    on_edge = np.zeros(len(pts), dtype=bool)
    for i in range(m):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % m]
        crosses = (y1 > y) != (y2 > y)
        if np.any(crosses):
            xi = x1 + (y[crosses] - y1) * (x2 - x1) / (y2 - y1)
            flip = np.zeros(len(pts), dtype=bool)
            flip[crosses] = x[crosses] < xi
            inside ^= flip
        seg2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        dot = (x - x1) * (x2 - x1) + (y - y1) * (y2 - y1)
        on_edge |= (cross * cross <= _EDGE_EPS * seg2) & \
                   (dot >= -_EDGE_EPS) & (dot <= seg2 + _EDGE_EPS)
    return inside | on_edge


def reference_sample_queries(world: World
                             ) -> tuple[list[tuple[int, int]], int]:
    """Query pairs and the resample count, drawing one point at a time.

    The world is left as it is; the rules are `sample_queries`' own.
    """
    s = world.scenario
    rng = np.random.default_rng(s.query_seed)
    cand = np.asarray(_main_street_component(world.skeleton))
    zone = world.zone
    region = zone is not None and zone.kind == "region"
    pairs: list[tuple[int, int]] = []
    resampled = 0

    def reject() -> None:
        nonlocal resampled
        resampled += 1
        if resampled > 1000 * s.queries:
            raise ScenarioError(f"gave up after {resampled} rejected draws "
                                f"with {len(pairs)} of {s.queries} pairs")

    def draw_point() -> tuple[float, float]:
        while True:
            pt = rng.uniform(0.0, world.field.side, size=2)
            if region and reference_points_in_region(zone, pt[None])[0]:
                reject()
                continue
            return float(pt[0]), float(pt[1])

    while len(pairs) < s.queries:
        p = draw_point()
        q = draw_point()
        if math.hypot(p[0] - q[0], p[1] - q[1]) < s.min_pair_distance:
            reject()
            continue
        a = nearest_node(world.field, p, cand)
        b = nearest_node(world.field, q, cand)
        if a == b:
            reject()
            continue
        pairs.append((a, b))
    return pairs, resampled


def reference_perimeter_streets(graph: CommGraph, zone: DangerZone,
                                width: float) -> np.ndarray:
    """Mask of the boundary nodes of the full graph, then ceil(width) hops
    outside."""
    base = boundary_nodes(graph, zone)
    outside = ~zone_node_mask(zone, graph.field.positions)
    dist, _ = reference_bfs(graph, base, outside, math.ceil(width))
    return np.isfinite(dist)


def reference_csr(field: SensorField) -> tuple[np.ndarray, np.ndarray]:
    """CSR rows from every pairwise distance: row u lists each other node
    within radio range (inclusive), ascending."""
    pos = field.positions
    d = np.hypot(pos[:, None, 0] - pos[None, :, 0],
                 pos[:, None, 1] - pos[None, :, 1])
    near = (d <= field.radio_range) & ~np.eye(field.n, dtype=bool)
    indptr = np.concatenate(([0], np.cumsum(near.sum(axis=1))))
    return indptr, np.nonzero(near)[1]


def reference_space_order(field: SensorField, mask: np.ndarray) -> np.ndarray:
    """Ids in mask by strip one radio range high, then by x, then by id."""
    ids = np.flatnonzero(mask)
    x, y = field.positions[ids].T
    return ids[np.lexsort((x, np.floor(y / field.radio_range)))]


def reference_component_labels(search: ActiveGraph) -> np.ndarray:
    """Per local id, its connected component's label, found undirected."""
    return connected_components(search.matrix, directed=False)[1]
