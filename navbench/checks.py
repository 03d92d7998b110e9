"""Output checks written apart from the skeleton_nav package.

Nothing here imports skeleton_nav.  The adjacency comes from a k-d tree
distance matrix (the package uses ``query_pairs``), hop counts from
``scipy.sparse.csgraph`` shortest paths, node-weighted exposure from
``dijkstra`` on edge weights ``w(u, v) = pot[v]`` plus ``pot[src]``, and zone
membership from a winding-number test.  ``run.py`` compares the package's
outputs with what these functions compute.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra, shortest_path
from scipy.spatial import cKDTree

#: Relative tolerance for exposure sums: the package adds node potentials
#: from the source outward, dijkstra adds edge weights and pot[src] last.
EXPOSURE_RTOL = 1e-9
#: Slack for ratios that must be >= 1; the package's own dominance check
#: allows exposure ties to differ by this much.
RATIO_SLACK = 1e-9
#: Geometric tolerance for on-line and on-boundary tests.
GEOM_EPS = 1e-9


def as_mask(nodes, n: int) -> np.ndarray:
    """Boolean membership mask from a node-id collection or a mask."""
    if isinstance(nodes, np.ndarray) and nodes.dtype == bool:
        return nodes.copy()
    mask = np.zeros(n, dtype=bool)
    ids = np.fromiter(nodes, dtype=np.int64)
    mask[ids] = True
    return mask


def adjacency(positions: np.ndarray, radio_range: float,
              block: int = 8192) -> sp.csr_matrix:
    """Unit-weight symmetric adjacency: an edge iff distance <= radio range.

    Built a block of rows at a time, so that the check's own memory stays
    well under the package's and peak RSS measures the package.
    """
    n = len(positions)
    tree = cKDTree(positions)
    rows, cols = [], []
    for start in range(0, n, block):
        part = cKDTree(positions[start:start + block])
        pairs = part.sparse_distance_matrix(tree, radio_range,
                                            output_type="ndarray")
        i = pairs["i"].astype(np.int32) + start
        j = pairs["j"].astype(np.int32)
        keep = i != j
        rows.append(i[keep])
        cols.append(j[keep])
    i = np.concatenate(rows)
    j = np.concatenate(cols)
    return sp.csr_matrix((np.ones(len(i), dtype=np.int8), (i, j)),
                         shape=(n, n))


def induced(adj: sp.csr_matrix, mask: np.ndarray) -> sp.csr_matrix:
    """Edges of adj whose two endpoints are both in mask."""
    keep = sp.diags(mask.astype(np.float64))
    sub = (keep @ adj.astype(np.float64) @ keep).tocsr()
    sub.eliminate_zeros()
    return sub


def hop_distances(adj: sp.csr_matrix, mask: np.ndarray,
                  sources) -> np.ndarray:
    """Hop distances from each source within the node set (inf: unreached)."""
    return shortest_path(induced(adj, mask), method="D", unweighted=True,
                         indices=np.asarray(sources, dtype=np.int64))


def exposure_costs(adj: sp.csr_matrix, mask: np.ndarray, sources,
                   pot: np.ndarray) -> np.ndarray:
    """Least node-potential sum from each source within the node set.

    Entering node v costs pot[v], so a path's dijkstra length plus the
    source's own potential is the sum of potentials along it.  Zero
    potentials are kept as explicit zero-weight edges, which csgraph honours.
    """
    sub = induced(adj, mask)
    weighted = sp.csr_matrix(
        (pot[sub.indices].astype(np.float64), sub.indices, sub.indptr),
        shape=sub.shape)
    src = np.asarray(sources, dtype=np.int64)
    dist = dijkstra(weighted, indices=src)
    return dist + pot[src][:, None]


def in_polygon(vertices: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Points inside the polygon or within GEOM_EPS of its boundary.

    Winding number over the polygon's edges; the package uses even-odd ray
    crossing, so the two agree only if both are right.
    """
    x = pts[:, 0]
    y = pts[:, 1]
    wind = np.zeros(len(pts), dtype=np.int64)
    near = np.zeros(len(pts), dtype=bool)
    m = len(vertices)
    for k in range(m):
        x1, y1 = vertices[k]
        x2, y2 = vertices[(k + 1) % m]
        side = (x2 - x1) * (y - y1) - (x - x1) * (y2 - y1)
        up = (y1 <= y) & (y2 > y) & (side > 0)
        down = (y1 > y) & (y2 <= y) & (side < 0)
        wind += up.astype(np.int64) - down.astype(np.int64)
        # distance from each point to the segment
        dx, dy = x2 - x1, y2 - y1
        t = np.clip(((x - x1) * dx + (y - y1) * dy) / (dx * dx + dy * dy),
                    0.0, 1.0)
        near |= np.hypot(x - (x1 + t * dx), y - (y1 + t * dy)) <= GEOM_EPS
    return (wind != 0) | near


def nearest_ids(positions: np.ndarray, mask: np.ndarray,
                points: np.ndarray) -> list[int]:
    """For each point, the closest node in mask; ties go to the lowest id."""
    ids = np.flatnonzero(mask)
    out = []
    for px, py in points:
        d2 = (positions[ids, 0] - px) ** 2 + (positions[ids, 1] - py) ** 2
        out.append(int(ids[np.argmin(d2)]))
    return out


def potentials(adj: sp.csr_matrix, active: np.ndarray, positions: np.ndarray,
               danger_points: np.ndarray, beta: float,
               clamp: float) -> np.ndarray:
    """Per-node potential: sum over dangers of 1 / max(hops, clamp)^beta.

    Each danger floods from its nearest active node; nodes a danger's flood
    never reaches get nothing from it.
    """
    srcs = nearest_ids(positions, active, danger_points)
    hops = hop_distances(adj, active, srcs)
    pot = np.zeros(len(positions))
    for row in hops:
        reached = np.isfinite(row)
        pot[reached] += 1.0 / np.maximum(row[reached], clamp) ** beta
    return pot


def close(a: float, b: float, rtol: float = EXPOSURE_RTOL) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b))


def grid_street_misses(positions: np.ndarray, nodes: np.ndarray, side: float,
                       separation: float, width: float) -> int:
    """Grid-street nodes farther than width/2 from every grid line.

    Lines sit at multiples of the separation inside the field, plus the two
    borders; a node passes if its x or its y is close to one.
    """
    half = width / 2.0 + GEOM_EPS

    def near(c: np.ndarray) -> np.ndarray:
        k = np.minimum(np.round(c / separation), math.floor(side /
                                                            separation))
        return ((np.abs(c - k * separation) <= half) | (c <= half)
                | (side - c <= half))

    pts = positions[nodes]
    ok = near(pts[:, 0]) | near(pts[:, 1])
    return int((~ok).sum())
