"""Uniform skeletons: a square grid of streets plus perimeter streets.

Streets are vertical and horizontal lines spaced n^(1/2 - epsilon) apart
(field borders always count as streets).  A sensor joins a street when its
perpendicular distance to the nearest line is at most half the street width.
Around a danger region, in-zone boundary sensors wake their out-of-zone
neighbourhood for a few hops, forming perimeter streets that let traffic
round the region.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import dijkstra

from .danger import DangerZone, boundary_tolerance, ids_in_box, \
    zone_node_mask
from .distsim import extract_path, run_bfs_flood
from .field import CommGraph, NodeId, SensorField, active_graph, node_mask
from .skeleton import Provenance, SkeletonGraph, default_street_width, \
    tagged

#: Slack on a unit bin's reach to a line, far above the rounding of a
#: coordinate's distance to it.
_LINE_GUARD = 1e-9


@dataclass(frozen=True)
class UniformStreetConfig:
    """Knobs for the grid-street construction."""

    epsilon: float               # street density exponent, 0 < epsilon < 1/2
    width: float | None = None   # full street width; None = 2/r at build time
    shift: float = 0.0           # diagonal offset of the grid, 0 <= shift < s
    prune: bool = False          # thin each street to one shortest path

    def separation(self, n: int) -> float:
        """Street spacing s = n^(1/2 - epsilon)."""
        return n ** (0.5 - self.epsilon)

    def validate(self, n: int, radio_range: float) -> tuple[float, float]:
        if not 0.0 < self.epsilon < 0.5:
            raise ValueError(f"epsilon must lie in (0, 1/2), got {self.epsilon}")
        s = self.separation(n)
        if not 1.0 < s < math.sqrt(n):
            raise ValueError(f"street separation {s:.3g} out of range for n={n}")
        w = self.width if self.width is not None else default_street_width(radio_range)
        if w <= 0:
            raise ValueError("street width must be positive")
        if w * radio_range <= 1.0:
            raise ValueError(
                f"width*range = {w * radio_range:.3g} <= 1: streets would shred")
        if not 0.0 <= self.shift < s:
            raise ValueError(f"shift {self.shift} outside [0, {s:.3g})")
        return s, w


def street_line_positions(side: float, separation: float,
                          shift: float) -> list[float]:
    """Grid line coordinates for one axis; borders are always streets."""
    lines = {0.0, side}
    k = 0
    while True:
        pos = shift + k * separation
        if pos > side:
            break
        lines.add(pos)
        k += 1
    out = sorted(lines)
    # collapse lines that rounding placed on top of each other
    dedup = [out[0]]
    for p in out[1:]:
        if p - dedup[-1] > 1e-9:
            dedup.append(p)
    return dedup


@dataclass(frozen=True)
class UniformGeometry:
    """Street lines of a built uniform skeleton; answers cell lookups."""

    lines: tuple[float, ...]  # both axes: the grid's shift is diagonal

    def enclosing_cell(self, x: float, y: float) -> tuple[float, float, float, float]:
        x0, x1 = _bracket(self.lines, x)
        y0, y1 = _bracket(self.lines, y)
        return x0, y0, x1, y1


def _bracket(lines: tuple[float, ...], v: float) -> tuple[float, float]:
    lo, hi = lines[0], lines[-1]
    for p in lines:
        if p <= v:
            lo = p
        else:
            hi = p
            break
    else:
        hi = lines[-1]
    return lo, hi


def build_perimeter_streets(graph: CommGraph, zone: DangerZone,
                            width: float) -> np.ndarray:
    """Mask of the boundary nodes and the out-of-zone nodes within
    ceil(width) hops of them; with width 0, exactly the boundary.

    The in-zone boundary nodes are included (callers exclude the zone when
    assembling a skeleton).  Only the edges near the polygon are needed.  A
    boundary node and its outside neighbour lie within r of the boundary,
    since the edge between them crosses it, so a node d hops further out
    lies within (d + 1) r.  The search runs on the graph of the sensors that
    close, a field of its own in local ids whose edges are the full graph's
    among them, so `graph`'s own rows are never read and only those sensors
    take the zone test.  One multi-source Dijkstra over its outside and
    boundary nodes stops at `depth` hops (no path gains by passing a second
    boundary node).
    """
    fld = graph.field
    depth = math.ceil(width)
    radius = (depth + 1) * fld.radio_range + boundary_tolerance(zone)
    ids = _near_boundary(zone, fld.positions, radius)
    band = CommGraph(field=SensorField(
        n=ids.size, side=fld.side, radio_range=fld.radio_range,
        seed=fld.seed, positions=fld.positions[ids]))
    inside = zone_node_mask(zone, band.field.positions)
    base = band.border(inside)
    inside[base] = False  # the boundary nodes are the sources
    search = active_graph(band, ~inside)
    dist = dijkstra(search.matrix, indices=search.local[base],
                    min_only=True, limit=depth)
    out = np.zeros(fld.n, dtype=bool)
    out[ids[search.ids[np.isfinite(dist)]]] = True
    return out


def _near_boundary(zone: DangerZone, pos: np.ndarray,
                   radius: float) -> np.ndarray:
    """Sorted ids of the points within radius of the polygon's boundary."""
    verts = zone.vertices
    ids = ids_in_box(pos, verts, radius)
    px, py = pos[ids].T
    near = np.zeros(len(ids), dtype=bool)
    for (x1, y1), (x2, y2) in zip(verts, np.roll(verts, -1, axis=0)):
        dx, dy = x2 - x1, y2 - y1
        t = np.clip(((px - x1) * dx + (py - y1) * dy) / (dx * dx + dy * dy),
                    0.0, 1.0)
        near |= np.hypot(px - (x1 + t * dx), py - (y1 + t * dy)) <= radius
    return ids[near]


def prune_street(graph: CommGraph, street: np.ndarray,
                 endpoints: tuple[NodeId, NodeId]) -> tuple[np.ndarray, bool]:
    """Thin a street (a node mask) to the hop-shortest path between its
    endpoints, the path a flood from the first one traces back.

    If the street is internally disconnected it is returned unchanged with a
    False flag so callers can keep the redundant embedding.
    """
    a, b = endpoints
    if not (street[a] and street[b]):
        raise ValueError("endpoints must belong to the street")
    route = extract_path(run_bfs_flood(graph, street, a), b)
    if not route:
        return street, False
    return node_mask(graph.n, route), True


def build_uniform_skeleton(graph: CommGraph, zone: DangerZone | None,
                           cfg: UniformStreetConfig) -> SkeletonGraph:
    """Wake the grid-street strips and perimeter streets, minus the zone."""
    fld = graph.field
    s, w = cfg.validate(fld.n, fld.radio_range)
    half = w / 2.0
    lines = street_line_positions(fld.side, s, cfg.shift)

    pos = fld.positions
    blocked = zone_node_mask(zone, pos)
    grid = (_near_line(pos[:, 0], lines, half)
            | _near_line(pos[:, 1], lines, half)) & ~blocked
    if cfg.prune:
        grid = _pruned_grid(graph, pos, lines, half, grid)
    tags = tagged(grid, Provenance.GRID_STREET)
    if zone is not None and zone.kind == "region":
        perimeter = build_perimeter_streets(graph, zone, w)
        tags[perimeter & ~grid & ~blocked] = Provenance.PERIMETER_STREET.tag

    return SkeletonGraph(graph=graph, tags=tags, blocked=blocked,
                         construction="uniform",
                         geometry=UniformGeometry(lines=tuple(lines)))


def _near_line(coord: np.ndarray, lines: list[float],
               half: float) -> np.ndarray:
    """Is each coordinate within half of its nearest line (lines sorted)?

    A bool table over the unit bins [b, b + 1) marks each bin that comes
    within half (plus a 1e-9 guard) of some line; the end bins are always
    marked, and coordinates beyond them clamp onto them.  A coordinate in
    an unmarked bin is farther than half from every line.  Only the
    coordinates in marked bins take the exact test: the nearest line is
    one of the two that bracket the coordinate, found by binary search.
    """
    lines = np.asarray(lines)
    bins = max(math.ceil(lines[-1]), 1)
    reach = half + _LINE_GUARD
    near = np.zeros(bins, dtype=bool)
    near[[0, -1]] = True
    for lo, hi in zip(np.floor(lines - reach), np.floor(lines + reach)):
        near[max(int(lo), 0):max(int(hi) + 1, 0)] = True
    cand = np.flatnonzero(
        near[np.clip(coord, 0, bins - 1).astype(np.intp)])
    c = coord[cand]
    k = np.searchsorted(lines, c)
    below = lines[np.maximum(k - 1, 0)]
    above = lines[np.minimum(k, len(lines) - 1)]
    out = np.zeros(len(coord), dtype=bool)
    out[cand] = np.minimum(np.abs(c - below), np.abs(c - above)) <= half
    return out


def _pruned_grid(graph: CommGraph, pos: np.ndarray, lines, half: float,
                 grid: np.ndarray) -> np.ndarray:
    """Per-street shortest-path thinning; unprunable streets stay as-is."""
    kept = np.zeros_like(grid)
    for axis in (0, 1):
        other = pos[:, 1 - axis]
        for line in lines:
            strip = grid & (np.abs(pos[:, axis] - line) <= half)
            ids = np.flatnonzero(strip)
            if ids.size < 2:
                kept |= strip
                continue
            # the two ends along the line, ties to the lowest id
            lo = ids[np.lexsort((ids, other[ids]))[0]]
            hi = ids[np.lexsort((-ids, other[ids]))[-1]]
            kept |= prune_street(graph, strip, (lo, hi))[0]
    return kept
