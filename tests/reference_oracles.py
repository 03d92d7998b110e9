"""Pure-Python reference searches, kept as independent checks.

The package runs its searches on CSR arrays: one numpy BFS kernel
(`field.bfs_tree`) and `scipy.sparse.csgraph` for the centralized oracles.
These loops walk the tuple-of-tuples adjacency (`CommGraph.adj`) one
neighbour at a time instead.  `centralized_bfs` and
`centralized_min_exposure` are the package's former oracles, unchanged;
`reference_bfs` is the hand-written level loop the kernel replaced,
generalized to several sources and a depth cap.  `reference_leaf_at` and
`reference_adaptive_awake` are the quadtree walk and the per-sensor loop
that the unit-cell leaf table replaced.  `reference_points_in_region` is
the zone test over every point, before the bounding-box prefilter, and
`reference_perimeter_streets` the perimeter search over the full graph,
before the boundary band.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from skeleton_nav.adaptive import QuadCell, Quadtree
from skeleton_nav.danger import _EDGE_EPS, DangerZone, boundary_nodes, \
    zone_node_mask
from skeleton_nav.field import CommGraph, NodeId, bfs_tree

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


def reference_leaf_at(tree: Quadtree, x: float, y: float) -> QuadCell:
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


def reference_adaptive_awake(graph: CommGraph, zone, tree: Quadtree,
                             width: float) -> frozenset[NodeId]:
    """Sensors outside the zone within width / 2 of their leaf's boundary."""
    half = width / 2.0
    mask = zone_node_mask(zone, graph.field.positions)
    awake = set()
    for i in range(graph.n):
        if mask[i]:
            continue
        x, y = graph.field.positions[i]
        leaf = reference_leaf_at(tree, float(x), float(y))
        s = leaf.size
        margin = min(x - leaf.x0, leaf.x0 + s - x, y - leaf.y0, leaf.y0 + s - y)
        if margin <= half:
            awake.add(i)
    return frozenset(awake)


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


def reference_perimeter_streets(graph: CommGraph, zone: DangerZone,
                                width: float) -> frozenset[NodeId]:
    """Boundary nodes of the full graph, then ceil(width) hops outside."""
    base = boundary_nodes(graph, zone)
    outside = ~zone_node_mask(zone, graph.field.positions)
    dist, _ = bfs_tree(graph, sorted(base), outside,
                       max_depth=math.ceil(width))
    return frozenset(np.flatnonzero(np.isfinite(dist)).tolist())
