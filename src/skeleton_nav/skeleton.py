"""The skeleton graph: the sparse awake subset used for path search.

A skeleton is a set of awake nodes plus the communication edges induced among
them.  Nodes inside a danger region are never awake.  Each awake node carries
a provenance tag saying which construction step put it there; query endpoints
that start off-street get attached on the fly and are tagged as endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .field import ActiveGraph, CommGraph, NodeId, active_graph, bfs_tree, \
    node_mask


class Provenance(Enum):
    GRID_STREET = "grid"
    PERIMETER_STREET = "perimeter"
    QUADTREE_EDGE = "quadtree"
    VORONOI_EDGE = "voronoi"
    ENDPOINT = "endpoint"


def default_street_width(radio_range: float) -> float:
    """Default street width 2/r, keeping strip density times range at 2."""
    return 2.0 / radio_range


@dataclass(eq=False)
class SkeletonGraph:
    """Awake node set with induced adjacency and per-node provenance."""

    graph: CommGraph
    awake: frozenset[NodeId]
    provenance: dict[NodeId, Provenance]
    construction: str                      # "uniform" | "adaptive"
    blocked: frozenset[NodeId] = frozenset()  # nodes inside the danger region
    geometry: object | None = None         # supports enclosing_cell(x, y)

    def __post_init__(self) -> None:
        if self.awake & self.blocked:
            raise ValueError("awake set overlaps the danger region")

    @property
    def size(self) -> int:
        return len(self.awake)

    @property
    def fraction(self) -> float:
        return len(self.awake) / self.graph.n

    def neighbors(self, node: NodeId) -> list[NodeId]:
        awake = self.awake
        return [v for v in self.graph.neighbors(node) if v in awake]

    @cached_property
    def search(self) -> ActiveGraph:
        """The awake set as a search graph, built on first use.

        Skeleton floods pass it in place of the awake set.  A copy made by
        `with_connectors` has its own awake set and builds its own.
        """
        return active_graph(self.graph, self.awake)

    @cached_property
    def adjacency(self) -> dict[NodeId, tuple[NodeId, ...]]:
        """Induced adjacency over the awake set, built on first use."""
        return {u: tuple(self.neighbors(u)) for u in sorted(self.awake)}

    def with_connectors(self, nodes, tag: Provenance = Provenance.ENDPOINT
                        ) -> "SkeletonGraph":
        """A copy with extra awake nodes (never waking blocked ones)."""
        extra = frozenset(nodes) - self.awake - self.blocked
        if not extra:
            return self
        prov = dict(self.provenance)
        for v in extra:
            prov[v] = tag
        return SkeletonGraph(graph=self.graph, awake=self.awake | extra,
                             provenance=prov, construction=self.construction,
                             blocked=self.blocked, geometry=self.geometry)


def skeleton_text(sk: SkeletonGraph) -> str:
    """Dump: one `id provenance` line per awake node, ascending ids."""
    return "\n".join(f"{i} {sk.provenance[i].value}" for i in sorted(sk.awake)) + "\n"


def save_skeleton(sk: SkeletonGraph, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(skeleton_text(sk))


def load_awake_set(path) -> dict[NodeId, Provenance]:
    out: dict[NodeId, Provenance] = {}
    with open(path, "r", encoding="ascii") as fh:
        for line in fh:
            parts = line.split()
            if parts:
                out[int(parts[0])] = Provenance(parts[1])
    return out


@dataclass(frozen=True)
class AttachResult:
    skeleton: SkeletonGraph
    packets: int          # wake-up transmissions spent on attachment
    src_attached: bool
    dst_attached: bool


def attach_offstreet_endpoints(graph: CommGraph, sk: SkeletonGraph,
                               src: NodeId, dst: NodeId) -> AttachResult:
    """Wire query endpoints into the skeleton, counting wake-up packets.

    The source runs an expanding-ring flood (doubling lifetime) until the ring
    contains an awake node, then the hop path to the nearest one joins as
    connectors.  An off-street destination is served by flooding its enclosing
    street cell, so every node of that cell joins.  On-street endpoints cost
    nothing.
    """
    packets = 0
    connectors: set[NodeId] = set()
    src_ok = True
    dst_ok = True

    if src not in sk.awake:
        src_ok = False
        allowed = ~node_mask(graph.n, sk.blocked)
        awake = node_mask(graph.n, sk.awake)
        ttl = 1
        prev_reached = 0
        while True:
            # depth-capped flood: every reached node forwards once
            dist, parent = bfs_tree(graph, [src], allowed, max_depth=ttl)
            reached = int(np.isfinite(dist).sum())
            packets += reached
            hits = np.flatnonzero(awake & np.isfinite(dist))
            if hits.size:
                # nearest street node; argmin keeps the lowest id on ties
                node = parent[hits[np.argmin(dist[hits])]]
                while node != -1:  # chain from src up to (excluding) the hit
                    connectors.add(int(node))
                    node = parent[node]
                src_ok = True
                break
            if reached == prev_reached:
                break  # ball stopped growing: component has no street node
            prev_reached = reached
            ttl *= 2

    if dst not in sk.awake and dst not in connectors:
        cell_nodes = _enclosing_cell_nodes(graph, sk, dst)
        packets += len(cell_nodes)
        connectors.update(cell_nodes)
        dst_ok = dst in cell_nodes

    attached = sk.with_connectors(connectors)
    return AttachResult(skeleton=attached, packets=packets,
                        src_attached=src_ok, dst_attached=dst_ok)


def _enclosing_cell_nodes(graph: CommGraph, sk: SkeletonGraph,
                          dst: NodeId) -> set[NodeId]:
    """Active nodes inside the street cell that encloses the destination."""
    geom = sk.geometry
    if geom is None:
        return {dst} - sk.blocked
    x0, y0, x1, y1 = geom.enclosing_cell(*graph.field.position(dst))
    px, py = graph.field.positions.T
    inside = (x0 <= px) & (px <= x1) & (y0 <= py) & (py <= y1)
    return set(np.flatnonzero(inside).tolist()) - sk.blocked
