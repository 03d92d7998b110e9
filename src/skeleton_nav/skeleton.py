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

from .field import INF, ActiveGraph, CommGraph, NodeId, active_graph, \
    hop_distances, lowest_parents, node_mask


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
    """Awake node set with its search graph and per-node provenance."""

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

    @cached_property
    def search(self) -> ActiveGraph:
        """The awake set as a search graph, built on first use.

        Skeleton floods pass it in place of the awake set.  A copy made by
        `with_connectors` has its own awake set and builds its own.
        """
        return active_graph(self.graph, self.awake)

    @cached_property
    def active(self) -> ActiveGraph:
        """The nodes outside the danger region as a search graph.

        A world's oracles read this same graph (`World.oracle`), and
        `build_world` fills it when the potential phase already built one.
        """
        return active_graph(self.graph, ~node_mask(self.graph.n, self.blocked))

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
    connectors; the source must lie outside the danger region.  An
    off-street destination is served by flooding its enclosing street cell,
    so every node of that cell joins.  On-street endpoints cost nothing.
    """
    if not 0 <= dst < graph.n:
        raise ValueError(f"destination {dst} is not a node")
    packets = 0
    connectors: set[NodeId] = set()
    src_ok = True
    dst_ok = True

    if src not in sk.awake:
        src_ok = False
        active = sk.active
        if not (0 <= src < graph.n and active.mask[src]):
            raise ValueError(f"source {src} is not active")
        # one flood gives every ring: the ring of lifetime ttl reaches the
        # nodes within ttl hops, and each of them forwards once
        dist = hop_distances(active, active.index(src))
        hits = np.flatnonzero(sk.search.mask[active.ids] & np.isfinite(dist))
        reach = dist[hits].min() if hits.size else INF
        ttl, prev_reached = 1, 0
        while True:
            reached = int(np.count_nonzero(dist <= ttl))
            packets += reached
            if reach <= ttl:
                # nearest street node, the lowest node id among equals
                parent = lowest_parents(active,
                                        np.where(dist <= reach, dist, INF))
                near = hits[dist[hits] == reach]
                node = parent[near[np.argmin(active.ids[near])]]
                while node != -1:  # chain from src up to (excluding) the hit
                    connectors.add(int(active.ids[node]))
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
