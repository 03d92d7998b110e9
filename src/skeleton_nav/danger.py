"""Danger zones, inverse-power potentials, and path exposure.

A zone is either a simple polygon region (paths must route around it) or a
bare set of danger points (paths may pass anywhere but pay exposure).  Every
danger source radiates a potential 1 / max(R, clamp)^beta; the exposure of a
node path is the sum of node potentials along it, and sources superpose
additively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .field import CommGraph, NodeId

_EDGE_EPS = 1e-9


@dataclass(frozen=True, eq=False)
class DangerZone:
    """A dangerous area: polygon region or point set, never both."""

    kind: str  # "region" | "points"
    vertices: np.ndarray | None = None  # (m, 2) CCW simple polygon
    points: np.ndarray | None = None    # (k, 2) danger locations
    curve_constant: float = 4.0         # bound on boundary length per box side

    def __post_init__(self) -> None:
        if self.kind not in ("region", "points"):
            raise ValueError(f"unknown zone kind {self.kind!r}")
        if self.curve_constant <= 1:
            raise ValueError("curve_constant must exceed 1")
        if self.kind == "region":
            if self.vertices is None or self.points is not None:
                raise ValueError("region zone needs vertices and no points")
            verts = _validated_polygon(np.asarray(self.vertices, dtype=np.float64))
            verts.setflags(write=False)
            object.__setattr__(self, "vertices", verts)
        else:
            if self.points is None or self.vertices is not None:
                raise ValueError("point zone needs points and no vertices")
            pts = np.ascontiguousarray(self.points, dtype=np.float64)
            if pts.ndim != 2 or pts.shape[1] != 2 or len(pts) == 0:
                raise ValueError("points must be a non-empty (k, 2) array")
            pts.setflags(write=False)
            object.__setattr__(self, "points", pts)

    @classmethod
    def region(cls, vertices, curve_constant: float = 4.0) -> "DangerZone":
        return cls(kind="region", vertices=np.asarray(vertices, dtype=np.float64),
                   curve_constant=curve_constant)

    @classmethod
    def point_set(cls, points, curve_constant: float = 4.0) -> "DangerZone":
        return cls(kind="points", points=np.asarray(points, dtype=np.float64),
                   curve_constant=curve_constant)


def _validated_polygon(verts: np.ndarray) -> np.ndarray:
    if verts.ndim != 2 or verts.shape[1] != 2 or len(verts) < 3:
        raise ValueError("region needs at least 3 vertices of shape (m, 2)")
    area2 = _signed_area2(verts)
    if abs(area2) < 1e-12:
        raise ValueError("degenerate polygon (zero area)")
    if _edge_lengths(verts).min() == 0.0:
        # the on-edge test would put every point on a zero-length edge
        raise ValueError("degenerate polygon (repeated vertex)")
    if area2 < 0:
        verts = verts[::-1].copy()  # store counter-clockwise
    if _self_intersects(verts):
        raise ValueError("polygon boundary self-intersects")
    return np.ascontiguousarray(verts)


def _edge_lengths(verts: np.ndarray) -> np.ndarray:
    return np.hypot(*(np.roll(verts, -1, axis=0) - verts).T)


def _signed_area2(verts: np.ndarray) -> float:
    x = verts[:, 0]
    y = verts[:, 1]
    return float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))


def _segments_cross(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        if v > _EDGE_EPS:
            return 1
        if v < -_EDGE_EPS:
            return -1
        return 0

    o1 = orient(p1, p2, q1)
    o2 = orient(p1, p2, q2)
    o3 = orient(q1, q2, p1)
    o4 = orient(q1, q2, p2)
    return o1 != o2 and o3 != o4 and 0 not in (o1, o2, o3, o4)


def _self_intersects(verts: np.ndarray) -> bool:
    m = len(verts)
    edges = [(verts[i], verts[(i + 1) % m]) for i in range(m)]
    for i in range(m):
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue  # shares the closing vertex
            if _segments_cross(*edges[i], *edges[j]):
                return True
    return False


def node_in_zone(zone: DangerZone, point: tuple[float, float]) -> bool:
    """Is the point inside the region (boundary counts as inside)?

    One point through `points_in_region`; point zones have no inside.
    """
    return bool(points_in_region(zone, np.array([point], dtype=np.float64))[0])


def boundary_tolerance(zone: DangerZone) -> float:
    """How far outside the polygon a point can lie and still count as in it.

    The on-edge test accepts points within sqrt(_EDGE_EPS) of an edge's
    line and up to _EDGE_EPS / |edge| beyond its ends, so the shortest edge
    sets the bound; it is doubled against rounding.
    """
    shortest = float(_edge_lengths(zone.vertices).min())
    return 2.0 * (math.sqrt(_EDGE_EPS) + _EDGE_EPS / shortest)


def ids_in_box(pts: np.ndarray, verts: np.ndarray,
               margin: float) -> np.ndarray:
    """Ids of the points in the vertices' bounding box widened by margin."""
    (x0, y0), (x1, y1) = verts.min(axis=0) - margin, verts.max(axis=0) + margin
    x, y = pts[:, 0], pts[:, 1]
    return np.flatnonzero((x >= x0) & (x <= x1) & (y >= y0) & (y <= y1))


def points_in_region(zone: DangerZone, pts: np.ndarray) -> np.ndarray:
    """Vectorized membership test for many points (boundary inclusive).

    Only points inside the polygon's bounding box, widened by its
    `boundary_tolerance`, are tested: every point beyond it is outside.
    """
    if zone.kind != "region":
        raise ValueError("point-set zones have no interior")
    pts = np.asarray(pts, dtype=np.float64)
    verts = zone.vertices
    near = ids_in_box(pts, verts, boundary_tolerance(zone))
    x = pts[near, 0]
    y = pts[near, 1]
    m = len(verts)
    inside = np.zeros(len(near), dtype=bool)
    on_edge = np.zeros(len(near), dtype=bool)
    for i in range(m):
        x1, y1 = verts[i]
        x2, y2 = verts[(i + 1) % m]
        crosses = (y1 > y) != (y2 > y)
        if np.any(crosses):
            xi = x1 + (y[crosses] - y1) * (x2 - x1) / (y2 - y1)
            flip = np.zeros(len(near), dtype=bool)
            flip[crosses] = x[crosses] < xi
            inside ^= flip
        seg2 = (x2 - x1) ** 2 + (y2 - y1) ** 2
        cross = (x2 - x1) * (y - y1) - (y2 - y1) * (x - x1)
        dot = (x - x1) * (x2 - x1) + (y - y1) * (y2 - y1)
        on_edge |= (cross * cross <= _EDGE_EPS * seg2) & \
                   (dot >= -_EDGE_EPS) & (dot <= seg2 + _EDGE_EPS)
    out = np.zeros(len(pts), dtype=bool)
    out[near] = inside | on_edge
    return out


def zone_node_mask(zone: DangerZone | None,
                   positions: np.ndarray) -> np.ndarray:
    """Boolean mask of nodes lying in the zone (all False for point zones)."""
    if zone is None or zone.kind != "region":
        return np.zeros(len(positions), dtype=bool)
    return points_in_region(zone, positions)


def boundary_nodes(graph: CommGraph, zone: DangerZone) -> frozenset[NodeId]:
    """In-zone nodes that hear at least one out-of-zone neighbor."""
    mask = zone_node_mask(zone, graph.field.positions)
    return frozenset(graph.border(mask).tolist())


@dataclass(frozen=True, eq=False)
class PotentialModel:
    """Inverse-power potential 1 / max(R, clamp)^beta summed over sources."""

    sources: np.ndarray          # (k, 2) danger locations
    beta: float = 2.0
    clamp_radius: float = 1.0

    def __post_init__(self) -> None:
        if self.beta <= 1:
            raise ValueError("beta must exceed 1 for finite path exposure")
        if self.clamp_radius <= 0:
            raise ValueError("clamp radius must be positive")
        src = np.ascontiguousarray(self.sources, dtype=np.float64)
        if src.ndim != 2 or src.shape[1] != 2 or len(src) == 0:
            raise ValueError("sources must be a non-empty (k, 2) array")
        src.setflags(write=False)
        object.__setattr__(self, "sources", src)


def potential_of_distance(model: PotentialModel, distance: float) -> float:
    """Single-source potential at the given separation."""
    return 1.0 / max(distance, model.clamp_radius) ** model.beta


def potential_at(model: PotentialModel, point: tuple[float, float]) -> float:
    """Superposed potential of all sources at a point."""
    px, py = point
    total = 0.0
    for sx, sy in model.sources:
        total += potential_of_distance(model, math.hypot(px - sx, py - sy))
    return total


def path_exposure(model: PotentialModel, path_positions) -> float:
    """Exposure of a node path: sum of node potentials along it.

    A single node scores its own potential; an empty path scores zero.
    """
    return float(sum(potential_at(model, (p[0], p[1])) for p in path_positions))


def perimeter_length(zone: DangerZone) -> float:
    if zone.kind != "region":
        raise ValueError("point-set zones have no perimeter")
    return float(_edge_lengths(zone.vertices).sum())


def _clip_segment_length(x1, y1, x2, y2, bx0, by0, bx1, by1) -> float:
    """Length of the part of segment (x1,y1)-(x2,y2) inside an axis box."""
    dx = x2 - x1
    dy = y2 - y1
    t0, t1 = 0.0, 1.0
    for p, q in ((-dx, x1 - bx0), (dx, bx1 - x1), (-dy, y1 - by0), (dy, by1 - y1)):
        if p == 0.0:
            if q < 0.0:
                return 0.0
            continue
        t = q / p
        if p < 0.0:
            if t > t1:
                return 0.0
            t0 = max(t0, t)
        else:
            if t < t0:
                return 0.0
            t1 = min(t1, t)
    if t1 <= t0:
        return 0.0
    return (t1 - t0) * math.hypot(dx, dy)


def well_behaved_check(zone: DangerZone, box_sizes) -> float:
    """Worst ratio of boundary length inside a box to the box side.

    Slides a half-step grid of axis-aligned boxes of each requested size over
    the boundary and reports the maximum clipped-length / size ratio.  The
    zone is well behaved if this stays below its curve_constant.
    """
    if zone.kind != "region":
        raise ValueError("point-set zones have no boundary to check")
    verts = zone.vertices
    m = len(verts)
    edges = [(float(verts[i, 0]), float(verts[i, 1]),
              float(verts[(i + 1) % m, 0]), float(verts[(i + 1) % m, 1]))
             for i in range(m)]
    min_x = float(verts[:, 0].min())
    max_x = float(verts[:, 0].max())
    min_y = float(verts[:, 1].min())
    max_y = float(verts[:, 1].max())
    worst = 0.0
    for size in box_sizes:
        if size <= 0:
            raise ValueError("box sizes must be positive")
        step = size / 2.0
        bx = min_x - size
        while bx <= max_x:
            by = min_y - size
            while by <= max_y:
                total = 0.0
                for x1, y1, x2, y2 in edges:
                    total += _clip_segment_length(x1, y1, x2, y2,
                                                 bx, by, bx + size, by + size)
                if total > 0.0:
                    worst = max(worst, total / size)
                by += step
            bx += step
    return worst


@dataclass(frozen=True)
class ZoneSpec:
    """A zone bundled with the potential parameters from its definition file."""

    zone: DangerZone
    beta: float = 2.0
    clamp_radius: float = 1.0


def parse_zone(text: str) -> ZoneSpec:
    params = {"beta": 2.0, "clamp": 1.0, "c": 4.0}
    kind = None
    coords: list[tuple[float, float]] = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if kind is not None:
            xs, ys = line.split()
            coords.append((float(xs), float(ys)))
            continue
        if line in ("region", "points"):
            kind = line
            continue
        key, value = line.split(None, 1)
        if key not in params:
            raise ValueError(f"unknown zone header {key!r}")
        params[key] = float(value)
    if kind is None:
        raise ValueError("zone file has no region/points section")
    arr = np.asarray(coords, dtype=np.float64)
    if kind == "region":
        zone = DangerZone.region(arr, curve_constant=params["c"])
    else:
        zone = DangerZone.point_set(arr, curve_constant=params["c"])
    return ZoneSpec(zone=zone, beta=params["beta"], clamp_radius=params["clamp"])


def load_zone(path) -> ZoneSpec:
    with open(path, "r", encoding="ascii") as fh:
        return parse_zone(fh.read())
