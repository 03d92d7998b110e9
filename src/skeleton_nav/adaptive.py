"""Adaptive skeletons: quadtree streets that refine around danger zones.

The field square is carved by a quadtree whose cells split wherever the
(integer-snapped) zone boundary touches them, down to unit cells.  Leaf-cell
boundaries become the streets; sensors within half a street width of their
leaf's boundary stay awake.  For point dangers the tree refines around the
points and hop-equidistant sensors form Voronoi streets between them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .danger import DangerZone, points_in_region, zone_node_mask
from .field import CommGraph, NodeId, active_graph, hop_distances, \
    nearest_node, node_mask
from .skeleton import Provenance, SkeletonGraph, default_street_width

_GRID_EPS = 1e-9


def _pow2_side(side: float) -> int:
    """Smallest power of two no smaller than the (rounded) field side."""
    target = max(1, round(side))
    out = 1
    while out < target - _GRID_EPS:
        out *= 2
    return out


def rasterize_region(zone: DangerZone, side: int) -> np.ndarray:
    """Unit cells whose open interior meets the region (outward snap).

    This is the integer-grid over-approximation the quadtree refines against;
    a polygon that is already axis-aligned on the grid snaps to itself.
    """
    inside = np.zeros((side, side), dtype=bool)
    verts = zone.vertices
    m = len(verts)

    # cells whose centre lies in the region
    xs = np.arange(side) + 0.5
    centers = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    inside |= points_in_region(zone, centers).reshape(side, side)

    for i in range(m):
        x1, y1 = float(verts[i, 0]), float(verts[i, 1])
        x2, y2 = float(verts[(i + 1) % m, 0]), float(verts[(i + 1) % m, 1])
        # a vertex strictly interior to a cell marks that cell
        for vx, vy in ((x1, y1),):
            fx, fy = vx - math.floor(vx), vy - math.floor(vy)
            if fx > _GRID_EPS and fy > _GRID_EPS:
                cx, cy = int(vx), int(vy)
                if 0 <= cx < side and 0 <= cy < side:
                    inside[cx, cy] = True
        # grid-aligned edges run between cells and touch no open interior
        if abs(x1 - x2) < _GRID_EPS and abs(x1 - round(x1)) < _GRID_EPS:
            continue
        if abs(y1 - y2) < _GRID_EPS and abs(y1 - round(y1)) < _GRID_EPS:
            continue
        ts = {0.0, 1.0}
        dx, dy = x2 - x1, y2 - y1
        if abs(dx) > _GRID_EPS:
            for k in range(math.ceil(min(x1, x2)), math.floor(max(x1, x2)) + 1):
                ts.add((k - x1) / dx)
        if abs(dy) > _GRID_EPS:
            for k in range(math.ceil(min(y1, y2)), math.floor(max(y1, y2)) + 1):
                ts.add((k - y1) / dy)
        order = sorted(t for t in ts if -_GRID_EPS <= t <= 1 + _GRID_EPS)
        for a, b in zip(order, order[1:]):
            if b - a < _GRID_EPS:
                continue
            tm = (a + b) / 2.0
            cx = int(math.floor(x1 + tm * dx))
            cy = int(math.floor(y1 + tm * dy))
            if 0 <= cx < side and 0 <= cy < side:
                inside[cx, cy] = True
    return inside


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
class QuadCell:
    level: int
    x0: int
    y0: int
    crossed: bool
    children: tuple["QuadCell", ...] | None = None

    @property
    def size(self) -> int:
        return 1 << self.level

    @property
    def is_leaf(self) -> bool:
        return self.children is None


@dataclass(eq=False)
class Quadtree:
    """Minimal quadtree whose leaves are never interior-crossed by the zone."""

    side: int
    root: QuadCell
    leaves: tuple[QuadCell, ...] = dc_field(default=())

    @property
    def levels(self) -> int:
        return self.root.level

    def leaf_at(self, x: float, y: float) -> QuadCell:
        """Leaf cell containing the point; edge points go to the upper cell."""
        cell = self.root
        cx = min(max(x, 0.0), self.side - _GRID_EPS)
        cy = min(max(y, 0.0), self.side - _GRID_EPS)
        while cell.children is not None:
            h = cell.size // 2
            ix = 1 if cx >= cell.x0 + h else 0
            iy = 1 if cy >= cell.y0 + h else 0
            cell = cell.children[ix + 2 * iy]
        return cell

    def enclosing_cell(self, x: float, y: float) -> tuple[float, float, float, float]:
        leaf = self.leaf_at(x, y)
        return (float(leaf.x0), float(leaf.y0),
                float(leaf.x0 + leaf.size), float(leaf.y0 + leaf.size))

    def street_segments(self) -> tuple[dict[int, list[tuple[int, int]]],
                                       dict[int, list[tuple[int, int]]]]:
        """Merged leaf-boundary intervals keyed by line coordinate."""
        vert: dict[int, list[tuple[int, int]]] = {}
        horiz: dict[int, list[tuple[int, int]]] = {}
        for leaf in self.leaves:
            s = leaf.size
            vert.setdefault(leaf.x0, []).append((leaf.y0, leaf.y0 + s))
            vert.setdefault(leaf.x0 + s, []).append((leaf.y0, leaf.y0 + s))
            horiz.setdefault(leaf.y0, []).append((leaf.x0, leaf.x0 + s))
            horiz.setdefault(leaf.y0 + s, []).append((leaf.x0, leaf.x0 + s))
        for table in (vert, horiz):
            for key, spans in table.items():
                table[key] = _merge_spans(spans)
        return vert, horiz

    def street_length(self) -> float:
        """Total unique length of leaf boundaries (shared edges counted once)."""
        vert, horiz = self.street_segments()
        total = 0
        for table in (vert, horiz):
            for spans in table.values():
                total += sum(b - a for a, b in spans)
        return float(total)

    def dump_text(self) -> str:
        lines = [
            f"{leaf.level} {leaf.x0} {leaf.y0} {leaf.size} {int(leaf.crossed)}"
            for leaf in sorted(self.leaves,
                               key=lambda c: (-c.level, c.x0, c.y0))
        ]
        return "\n".join(lines) + "\n"


def _merge_spans(spans: list[tuple[int, int]]) -> list[tuple[int, int]]:
    spans = sorted(spans)
    out = [spans[0]]
    for a, b in spans[1:]:
        la, lb = out[-1]
        if a <= lb:
            out[-1] = (la, max(lb, b))
        else:
            out.append((a, b))
    return out


def build_quadtree(zones, side: float) -> Quadtree:
    """Refine the field around the zone boundary, unit cells at the finest.

    Accepts one zone or a sequence; every cell the snapped boundary touches
    (interior or edges) splits, so no leaf interior is ever crossed.
    """
    if isinstance(zones, DangerZone):
        zones = [zones]
    zones = [z for z in zones if z is not None]
    side_i = _pow2_side(side)
    levels = side_i.bit_length() - 1
    tester = _CrossTester(zones, side_i)

    def build(level: int, x0: int, y0: int) -> QuadCell:
        crossed = tester.crossed(x0, y0, 1 << level)
        cell = QuadCell(level=level, x0=x0, y0=y0, crossed=crossed)
        if crossed and level > 0:
            h = 1 << (level - 1)
            cell.children = (
                build(level - 1, x0, y0),
                build(level - 1, x0 + h, y0),
                build(level - 1, x0, y0 + h),
                build(level - 1, x0 + h, y0 + h),
            )
        return cell

    root = build(levels, 0, 0)
    leaves: list[QuadCell] = []
    stack = [root]
    while stack:
        cell = stack.pop()
        if cell.children is None:
            leaves.append(cell)
        else:
            stack.extend(cell.children)
    return Quadtree(side=side_i, root=root, leaves=tuple(leaves))


def build_adaptive_skeleton(graph: CommGraph, zone: DangerZone | None,
                            tree: Quadtree | None = None,
                            width: float | None = None) -> SkeletonGraph:
    """Wake every sensor within half a street width of its leaf boundary."""
    fld = graph.field
    if tree is None:
        tree = build_quadtree([] if zone is None else zone, fld.side)
    if width is None:
        width = default_street_width(fld.radio_range)
    half = width / 2.0

    mask = zone_node_mask(zone, fld.positions)
    awake = set()
    for i in range(fld.n):
        if mask[i]:
            continue
        x, y = fld.positions[i]
        leaf = tree.leaf_at(float(x), float(y))
        s = leaf.size
        margin = min(x - leaf.x0, leaf.x0 + s - x, y - leaf.y0, leaf.y0 + s - y)
        if margin <= half:
            awake.add(i)
    blocked = frozenset(np.flatnonzero(mask).tolist())
    provenance = {v: Provenance.QUADTREE_EDGE for v in awake}
    return SkeletonGraph(graph=graph, awake=frozenset(awake),
                         provenance=provenance, construction="adaptive",
                         blocked=blocked, geometry=tree)


@dataclass(frozen=True)
class Cluster:
    """Sensors within half a street width of one quadtree cell's boundary."""

    level: int
    ix: int
    iy: int
    members: tuple[NodeId, ...]

    @property
    def leader(self) -> NodeId:
        return min(self.members)


def clusters_at_level(graph: CommGraph, zone: DangerZone | None, level: int,
                      side: int, width: float) -> dict[tuple[int, int], Cluster]:
    """All non-empty clusters of the given level over the full grid of cells.

    A sensor can sit near the shared boundary of several cells and then
    belongs to each of their clusters.
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
        if min(dx0, dx1, dy0, dy1) <= half:
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

    return {
        key: Cluster(level=level, ix=key[0], iy=key[1],
                     members=tuple(sorted(nodes)))
        for key, nodes in members.items()
    }


@dataclass(frozen=True)
class RetirementResult:
    messages: int
    awake: frozenset[NodeId]


def simulate_cluster_retirement(graph: CommGraph, zone: DangerZone | None,
                                width: float | None = None) -> RetirementResult:
    """Bottom-up cluster retirement over the fully refined tree.

    Every cluster walks its boundary once (one message per member) to check
    for danger; danger-free clusters send one notification to their parent,
    and a parent whose four children are danger-free retires them.  What
    survives is the root cluster plus every cluster whose parent cell is
    crossed, which matches the directly built adaptive skeleton.
    """
    fld = graph.field
    if width is None:
        width = default_street_width(fld.radio_range)
    side = _pow2_side(fld.side)
    levels = side.bit_length() - 1
    zones = [] if zone is None else [zone]
    tester = _CrossTester(zones, side)

    messages = 0
    awake: set[NodeId] = set()
    for level in range(levels + 1):
        s = 1 << level
        clusters = clusters_at_level(graph, zone, level, side, width)
        for (ix, iy), cluster in clusters.items():
            crossed = tester.crossed(ix * s, iy * s, s)
            messages += len(cluster.members)          # boundary walk
            if not crossed and level < levels:
                messages += 1                         # notify parent
            if level == levels:
                survives = True                       # root has no parent
            else:
                ps = s * 2
                survives = tester.crossed((ix // 2) * ps, (iy // 2) * ps, ps)
            if survives:
                awake.update(cluster.members)
    return RetirementResult(messages=messages, awake=frozenset(awake))


@dataclass(frozen=True)
class VoronoiBand:
    nodes: frozenset[NodeId]
    degenerate: bool


def detect_voronoi_nodes(graph: CommGraph, sources, active=None,
                         distance_tables=None, max_gap: int = 1,
                         degenerate_fraction: float = 0.8) -> VoronoiBand:
    """Sensors whose two closest danger points are within max_gap hops.

    Needs at least two sources.  Duplicate (collocated) sources make nearly
    every sensor equidistant; such a band is flagged degenerate.
    """
    mask = node_mask(graph.n, active)
    ids = np.flatnonzero(mask)
    if distance_tables is None:
        pts = np.asarray(sources, dtype=np.float64)
        if pts.ndim != 2 or len(pts) < 2:
            raise ValueError("need at least two danger points")
        cand = ids.tolist()
        search = active_graph(graph, mask)
        distance_tables = []
        for p in pts:
            src = nearest_node(graph.field, (float(p[0]), float(p[1])), cand)
            distance_tables.append(hop_distances(search, src))
    if len(distance_tables) < 2:
        raise ValueError("need at least two danger points")
    # each node's two smallest hop distances over all sources
    d0, d1 = np.sort(np.asarray(distance_tables)[:, ids], axis=0)[:2]
    band = ids[np.isfinite(d1) & (d1 <= d0 + max_gap)]
    degenerate = ids.size > 0 and band.size >= degenerate_fraction * ids.size
    return VoronoiBand(nodes=frozenset(band.tolist()), degenerate=degenerate)


def embed_voronoi_streets(sk: SkeletonGraph, band: VoronoiBand) -> SkeletonGraph:
    """Union the Voronoi street nodes into a quadtree skeleton."""
    return sk.with_connectors(band.nodes, tag=Provenance.VORONOI_EDGE)
