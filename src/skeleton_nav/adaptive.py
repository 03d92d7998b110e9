"""Adaptive skeletons: quadtree streets that refine around danger zones.

The field square is carved by a quadtree whose cells split wherever the
(integer-snapped) zone boundary touches them, down to unit cells.  Leaf-cell
boundaries and the field border become the streets; sensors within half a
street width of their leaf's boundary, or of the border, stay awake.  For
point dangers the tree refines around the points and hop-equidistant
sensors form Voronoi streets between them, read off the hop tables of the
potential phase (`distsim.run_potential_phase`).

The tree is held as arrays, not cell objects: a pyramid of crossed-cell
masks, one per level, each the 2 x 2 OR of the level below, and one table
of each unit cell's leaf level.  Locating a point's leaf is a clamp, an
integer cast, one flat table read and a round down to the leaf's corner,
so the skeleton build locates all sensors at once with array operations.

`simulate_cluster_retirement` charges the skeleton's own construction in
messages: each cell's cluster of sensors near its boundary checks it for
danger, bottom-up, and what survives wakes exactly the directly built
skeleton.  It is one array pass per tree level over the sensors, each
joining at most the 3 x 3 cells around its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .danger import DangerZone, boundary_tolerance, points_in_region, \
    zone_node_mask
from .distsim import PotentialPhase
from .field import CommGraph
from .skeleton import Provenance, SkeletonGraph, default_street_width, \
    tagged

_GRID_EPS = 1e-9


def _pow2_side(side: float) -> int:
    """Smallest power of two no smaller than the field side, so the tree
    covers the whole field."""
    out = 1
    while out < side - _GRID_EPS:
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

    # cells whose centre lies in the region; `points_in_region` rejects
    # every centre beyond the same widened box, so only the box's are tested
    tol = boundary_tolerance(zone)
    lo, hi = verts.min(axis=0) - tol, verts.max(axis=0) + tol
    xs = np.arange(side) + 0.5
    ix = np.flatnonzero((xs >= lo[0]) & (xs <= hi[0]))
    iy = np.flatnonzero((xs >= lo[1]) & (xs <= hi[1]))
    centers = np.stack(np.meshgrid(xs[ix], xs[iy], indexing="ij"),
                       axis=-1).reshape(-1, 2)
    inside[np.ix_(ix, iy)] = \
        points_in_region(zone, centers).reshape(len(ix), len(iy))

    for i in range(m):
        x1, y1 = float(verts[i, 0]), float(verts[i, 1])
        x2, y2 = float(verts[(i + 1) % m, 0]), float(verts[(i + 1) % m, 1])
        # a vertex strictly interior to a cell marks that cell
        fx, fy = x1 - math.floor(x1), y1 - math.floor(y1)
        if fx > _GRID_EPS and fy > _GRID_EPS:
            cx, cy = int(x1), int(y1)
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


def touched_cells(zones, side: int) -> np.ndarray:
    """Unit cells, indexed [x, y], whose closed square meets a zone.

    A unit edge of a region's snapped boundary marks both cells it
    separates; a danger point marks every cell whose closed square holds
    it, so a point on an integer line marks two or four.
    """
    touched = np.zeros((side, side), dtype=bool)
    lo = np.arange(side)
    for zone in zones:
        if zone.kind == "points":
            for px, py in zone.points:
                touched[np.ix_((lo <= px) & (px <= lo + 1),
                               (lo <= py) & (py <= lo + 1))] = True
            continue
        inside = np.pad(rasterize_region(zone, side), 1)
        core = inside[1:-1, 1:-1]
        touched |= (core != inside[:-2, 1:-1]) | (core != inside[2:, 1:-1]) \
            | (core != inside[1:-1, :-2]) | (core != inside[1:-1, 2:])
    return touched


class QuadCell(NamedTuple):
    """An aligned block of 2^level unit cells on a side, by its low corner."""

    x0: int
    y0: int
    level: int

    @property
    def size(self) -> int:
        return 1 << self.level


@dataclass(eq=False)
class Quadtree:
    """Minimal quadtree whose leaves are never interior-crossed by the zone.

    `crossed[L][i, j]` says whether the zone touches the level-L cell with
    low corner (i << L, j << L).  Crossing only grows going up, so the tree
    splits exactly the crossed cells, and `level[x, y]` holds the level of
    the leaf that unit cell (x, y) lies in.  Both are read-only.
    """

    side: int
    crossed: tuple[np.ndarray, ...]
    level: np.ndarray

    @property
    def levels(self) -> int:
        return len(self.crossed) - 1

    @cached_property
    def leaves(self) -> tuple[QuadCell, ...]:
        """Every leaf, ordered by its low corner."""
        dx, dy = self._offsets()
        xs, ys = np.nonzero((dx == 0) & (dy == 0))
        return tuple(map(QuadCell, xs.tolist(), ys.tolist(),
                         self.level[xs, ys].tolist()))

    def _offsets(self) -> tuple[np.ndarray, np.ndarray]:
        """Each unit cell's offsets from its leaf's low corner, in x and y."""
        low_bits = (1 << self.level.astype(np.intp)) - 1
        ix = np.arange(self.side)
        return ix[:, None] & low_bits, ix[None, :] & low_bits

    def leaf_cells(self, x, y) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Low corners and sizes of the leaves holding the points (x, y).

        Points beyond the tree clamp onto its edge, to [0, side - 1e-9].
        The clamped values are non-negative, so the integer cast truncates
        them to their floor: a point on an internal edge lies in the upper
        cell, the one that starts there.  The levels are read from the
        flattened table at x * side + y.
        """
        hi = self.side - _GRID_EPS
        cx = np.clip(x, 0.0, hi).astype(np.intp)
        cy = np.clip(y, 0.0, hi).astype(np.intp)
        lv = self.level.ravel().take(cx * self.side + cy).astype(np.intp)
        return (cx >> lv) << lv, (cy >> lv) << lv, 1 << lv

    def leaf_at(self, x: float, y: float) -> QuadCell:
        """Leaf cell containing the point; edge points go to the upper cell."""
        x0, y0, size = map(int, self.leaf_cells(x, y))
        return QuadCell(x0, y0, size.bit_length() - 1)

    def enclosing_cell(self, x: float, y: float) -> tuple[float, float, float, float]:
        leaf = self.leaf_at(x, y)
        return (float(leaf.x0), float(leaf.y0),
                float(leaf.x0 + leaf.size), float(leaf.y0 + leaf.size))

    def street_length(self) -> float:
        """Total unique length of leaf boundaries (shared edges counted once).

        A vertical unit segment is a street when the cell right of it starts
        its leaf along x, a horizontal one when the cell above it starts its
        leaf along y.  That counts the left and bottom borders; the right
        and top ones add 2 * side.
        """
        dx, dy = self._offsets()
        return float(np.count_nonzero(dx == 0) + np.count_nonzero(dy == 0)
                     + 2 * self.side)


def build_quadtree(zones, side: float) -> Quadtree:
    """Refine the field around the zone boundary, unit cells at the finest.

    Accepts one zone or a sequence; every cell the snapped boundary touches
    (interior or edges) splits, so no leaf interior is ever crossed.
    """
    if isinstance(zones, DangerZone):
        zones = [zones]
    zones = [z for z in zones if z is not None]
    side_i = _pow2_side(side)
    crossed = [touched_cells(zones, side_i)]
    while len(crossed[-1]) > 1:
        c = crossed[-1]
        crossed.append(c[0::2, 0::2] | c[1::2, 0::2] | c[0::2, 1::2]
                       | c[1::2, 1::2])
    # count the uncrossed blocks above each unit cell, itself included: its
    # leaf is the highest of them, or the unit cell when there are none
    open_blocks = (~crossed[-1]).astype(np.int8)
    for c in crossed[-2::-1]:
        open_blocks = open_blocks.repeat(2, axis=0).repeat(2, axis=1) + ~c
    level = np.maximum(open_blocks - 1, 0).astype(np.int8)
    for table in (*crossed, level):
        table.setflags(write=False)
    return Quadtree(side=side_i, crossed=tuple(crossed), level=level)


def build_adaptive_skeleton(graph: CommGraph, zone: DangerZone | None,
                            tree: Quadtree | None = None,
                            width: float | None = None) -> SkeletonGraph:
    """Wake every sensor within half a street width of its leaf boundary
    or of the field border, outside the zone."""
    fld = graph.field
    if tree is None:
        tree = build_quadtree([] if zone is None else zone, fld.side)
    if width is None:
        width = default_street_width(fld.radio_range)
    half = width / 2.0

    x, y = fld.positions.T
    blocked = zone_node_mask(zone, fld.positions)
    x0, y0, s = tree.leaf_cells(x, y)
    # margins come from the unclamped positions: a sensor beyond the tree
    # gets a negative margin and wakes.  The field's top and right borders
    # are streets too; where the tree overhangs the field no leaf edge
    # runs along them, and elsewhere they are the border leaves' own edges
    margin = np.minimum(np.minimum(np.minimum(x - x0, (x0 + s) - x),
                                   np.minimum(y - y0, (y0 + s) - y)),
                        fld.side - np.maximum(x, y))
    tags = tagged((margin <= half) & ~blocked, Provenance.QUADTREE_EDGE)
    return SkeletonGraph(graph=graph, tags=tags, blocked=blocked,
                         construction="adaptive", geometry=tree)


@dataclass(frozen=True)
class RetirementResult:
    messages: int
    awake: np.ndarray  # bool mask, as `SkeletonGraph.awake`


def simulate_cluster_retirement(graph: CommGraph, zone: DangerZone | None,
                                width: float | None = None) -> RetirementResult:
    """Bottom-up cluster retirement over the fully refined tree.

    The cluster of a quadtree cell holds the out-of-zone sensors within
    half a street width of its boundary; the root's also holds those within
    half a width of the field's top and right borders, which run inside
    the root where the tree overhangs the field.  Every cluster walks its
    boundary once (one message per member) to check for danger;
    danger-free clusters send one notification to their parent, and a
    parent whose four children are danger-free retires them.  What
    survives is the root cluster plus every cluster whose parent cell is
    crossed; its members are `build_adaptive_skeleton`'s awake set, at any
    field side.

    Each level is one array pass: a sensor can join only the clusters of
    its own cell and the 8 around it, and its distance to a neighbour is
    made of its gaps to its own cell's edges (zero along an axis the two
    cells share).
    """
    fld = graph.field
    if width is None:
        width = default_street_width(fld.radio_range)
    half = width / 2.0
    tree = build_quadtree([] if zone is None else zone, fld.side)
    ids = np.flatnonzero(~zone_node_mask(zone, fld.positions))
    pos = np.ascontiguousarray(fld.positions[ids].T)  # one row per axis
    step = np.arange(-1, 2)[:, None]

    messages = 0
    awake = np.zeros(fld.n, dtype=bool)
    for level, crossed in enumerate(tree.crossed):
        s, cells = 1 << level, len(crossed)
        # s is a power of two: pos / s is exact, and its floor is pos // s
        cell = np.minimum(np.floor(pos / s), cells - 1)
        lo = pos - cell * s                       # gaps to the low edges
        own = np.minimum(lo, s - lo).min(axis=0)
        if level == tree.levels:                  # the field's far borders
            own = np.minimum(own, fld.side - pos.max(axis=0))
        k = np.flatnonzero(own <= half)           # the rest join no cluster
        # per axis, the gaps toward the cells below, level with and above:
        # sensor k[j] joins the cell offset by (a - 1, b - 1) if near[a, b, j]
        gap = np.stack((lo[:, k], np.zeros((2, k.size)), s - lo[:, k]), axis=1)
        near = np.hypot(gap[0][:, None], gap[1][None, :]) <= half
        near[1, 1] = True                         # each k is near its own cell
        grid = (cell[:, None, k] + step).astype(np.intp)
        on = (grid >= 0) & (grid < cells)
        near &= on[0][:, None] & on[1][None, :]
        a, b, j = np.nonzero(near)
        mx, my, k = grid[0, a, j], grid[1, b, j], k[j]  # one per membership
        messages += k.size                        # boundary walks
        if level < tree.levels:
            clustered = np.zeros_like(crossed)
            clustered[mx, my] = True
            messages += np.count_nonzero(clustered & ~crossed)  # notify
            k = k[tree.crossed[level + 1][mx >> 1, my >> 1]]
        awake[ids[k]] = True
    return RetirementResult(messages=messages, awake=awake)


#: A band holding this share of the active nodes or more is degenerate: its
#: streets would wake nearly the whole network.
DEGENERATE_FRACTION = 0.8


@dataclass(frozen=True)
class VoronoiBand:
    nodes: np.ndarray  # sorted node ids
    degenerate: bool


def detect_voronoi_nodes(phase: PotentialPhase, max_gap: int = 1
                         ) -> VoronoiBand:
    """Sensors whose two closest danger sources are within max_gap hops,
    read off the potential phase's hop tables over the graph it flooded.

    Needs at least two sources.  Duplicate (collocated) sources make nearly
    every sensor equidistant; such a band, DEGENERATE_FRACTION of the
    flooded nodes or more, is flagged degenerate.
    """
    if len(phase.source_nodes) < 2:
        raise ValueError("need at least two danger points")
    ids = phase.search.ids
    # each node's two smallest hop distances over all sources
    d0, d1 = np.sort(phase.distance_tables[:, ids], axis=0)[:2]
    band = np.sort(ids[np.isfinite(d1) & (d1 <= d0 + max_gap)])
    degenerate = band.size >= DEGENERATE_FRACTION * ids.size
    return VoronoiBand(nodes=band, degenerate=degenerate)


def embed_voronoi_streets(sk: SkeletonGraph, band: VoronoiBand) -> SkeletonGraph:
    """Union the Voronoi street nodes into a quadtree skeleton."""
    return sk.with_connectors(band.nodes, tag=Provenance.VORONOI_EDGE)
