"""The skeleton graph: the sparse awake subset used for path search.

A skeleton is a set of awake nodes plus the communication edges induced among
them.  Nodes inside a danger region are never awake.  Each node carries a
tag: 0 when asleep, else the provenance of the construction step that woke
it; query endpoints that start off-street get attached on the fly and are
tagged as endpoints.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .field import INF, ActiveGraph, CommGraph, NodeId, active_graph, \
    hop_distances, lowest_parents


class Provenance(Enum):
    GRID_STREET = "grid"
    PERIMETER_STREET = "perimeter"
    QUADTREE_EDGE = "quadtree"
    VORONOI_EDGE = "voronoi"
    ENDPOINT = "endpoint"

    @property
    def tag(self) -> int:
        """The node tag that stands for this provenance (0 is asleep)."""
        return _TAGS.index(self)


_TAGS = (None, *Provenance)


def tagged(mask: np.ndarray, provenance: Provenance) -> np.ndarray:
    """Int8 node tags: the provenance's tag on the mask, 0 elsewhere."""
    return np.where(mask, np.int8(provenance.tag), np.int8(0))


def default_street_width(radio_range: float) -> float:
    """Default street width 2/r, keeping strip density times range at 2."""
    return 2.0 / radio_range


@dataclass(eq=False)
class SkeletonGraph:
    """Per-node tags and zone mask (both read-only), with the views and
    search graphs derived from them on first read."""

    graph: CommGraph
    tags: np.ndarray                       # int8: 0 asleep, else the tag
    blocked: np.ndarray                    # bool: inside the danger region
    construction: str                      # "full" | "uniform" | "adaptive"
    geometry: object | None = None         # supports enclosing_cell(x, y)

    def __post_init__(self) -> None:
        for arr in (self.tags, self.blocked):
            arr.setflags(write=False)
        if (self.awake & self.blocked).any():
            raise ValueError("awake set overlaps the danger region")

    @cached_property
    def awake(self) -> np.ndarray:
        """Read-only bool mask of the awake (tagged) nodes."""
        mask = self.tags != 0
        mask.setflags(write=False)
        return mask

    @property
    def size(self) -> int:
        return int(np.count_nonzero(self.awake))

    @property
    def fraction(self) -> float:
        return self.size / self.graph.n

    @cached_property
    def provenance(self) -> dict[NodeId, Provenance]:
        """Each awake node's provenance by node id, in id order."""
        ids = np.flatnonzero(self.tags)
        return dict(zip(ids.tolist(), map(_TAGS.__getitem__,
                                          self.tags[ids].tolist())))

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

        A world's potential phase and oracles read this same graph, and a
        copy made by `with_connectors` shares it once it is built.
        """
        return active_graph(self.graph, ~self.blocked)

    def with_connectors(self, nodes, tag: Provenance = Provenance.ENDPOINT
                        ) -> "SkeletonGraph":
        """A copy that also wakes `nodes` (ids or a mask) tagged `tag`;
        blocked nodes stay asleep, awake ones keep their tags, and with
        nothing new to wake the skeleton itself is returned."""
        wake = np.zeros(self.graph.n, dtype=bool)
        wake[nodes] = True
        wake &= ~(self.awake | self.blocked)
        if not wake.any():
            return self
        tags = self.tags.copy()
        tags[wake] = tag.tag
        copy = SkeletonGraph(graph=self.graph, tags=tags, blocked=self.blocked,
                             construction=self.construction,
                             geometry=self.geometry)
        if "active" in vars(self):
            vars(copy)["active"] = self.active
        return copy


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
    so every node of that cell joins.  On-street endpoints cost nothing,
    and when both are on the street the skeleton itself is returned.
    """
    if not 0 <= dst < graph.n:
        raise ValueError(f"destination {dst} is not a node")
    if not 0 <= src < graph.n or sk.blocked[src]:
        raise ValueError(f"source {src} is not active")
    if sk.awake[src] and sk.awake[dst]:
        return AttachResult(sk, 0, True, True)
    packets = 0
    connectors = np.zeros(graph.n, dtype=bool)
    src_ok = True
    dst_ok = True

    if not sk.awake[src]:
        src_ok = False
        active = sk.active
        # one flood gives every ring: the ring of lifetime ttl reaches the
        # nodes within ttl hops, and each of them forwards once
        dist = hop_distances(active, active.index(src))
        hits = np.flatnonzero(sk.awake[active.ids] & np.isfinite(dist))
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
                    connectors[active.ids[node]] = True
                    node = parent[node]
                src_ok = True
                break
            if reached == prev_reached:
                break  # ball stopped growing: component has no street node
            prev_reached = reached
            ttl *= 2

    if not (sk.awake[dst] or connectors[dst]):
        cell = _enclosing_cell_nodes(graph, sk, dst)
        packets += int(np.count_nonzero(cell))
        connectors |= cell
        dst_ok = bool(cell[dst])

    attached = sk.with_connectors(connectors)
    return AttachResult(skeleton=attached, packets=packets,
                        src_attached=src_ok, dst_attached=dst_ok)


def _enclosing_cell_nodes(graph: CommGraph, sk: SkeletonGraph,
                          dst: NodeId) -> np.ndarray:
    """Mask of the active nodes inside the street cell that encloses the
    destination."""
    geom = sk.geometry
    if geom is None:
        return (np.arange(graph.n) == dst) & ~sk.blocked
    x0, y0, x1, y1 = geom.enclosing_cell(*graph.field.position(dst))
    px, py = graph.field.positions.T
    return (x0 <= px) & (px <= x1) & (y0 <= py) & (py <= y1) & ~sk.blocked
