"""Danger zone geometry, potentials, and exposure tests.

Point-in-polygon is cross-checked with an independent winding-number
oracle; the straight-line exposure sum is checked against its closed-form
integral for the inverse-square potential.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from skeleton_nav.danger import (
    DangerZone,
    PotentialModel,
    boundary_nodes,
    load_zone,
    node_in_zone,
    parse_zone,
    path_exposure,
    perimeter_length,
    points_in_region,
    potential_at,
    potential_of_distance,
    well_behaved_check,
    zone_node_mask,
)

from reference_oracles import reference_points_in_region

OCTAGON = [(12, 8), (20, 8), (24, 12), (24, 20), (20, 24), (12, 24),
           (8, 20), (8, 12)]
USHAPE = [(8, 8), (24, 8), (24, 24), (20, 24), (20, 12), (12, 12),
          (12, 24), (8, 24)]


def winding_inside(verts: np.ndarray, x: float, y: float) -> bool:
    """Winding-number oracle; undefined on the boundary itself."""
    angle = 0.0
    m = len(verts)
    for i in range(m):
        ax, ay = verts[i, 0] - x, verts[i, 1] - y
        bx, by = verts[(i + 1) % m, 0] - x, verts[(i + 1) % m, 1] - y
        angle += math.atan2(ax * by - ay * bx, ax * bx + ay * by)
    return abs(angle) > math.pi


def dist_to_boundary(verts: np.ndarray, x: float, y: float) -> float:
    best = math.inf
    m = len(verts)
    for i in range(m):
        ax, ay = verts[i]
        bx, by = verts[(i + 1) % m]
        dx, dy = bx - ax, by - ay
        t = ((x - ax) * dx + (y - ay) * dy) / (dx * dx + dy * dy)
        t = min(max(t, 0.0), 1.0)
        best = min(best, math.hypot(x - (ax + t * dx), y - (ay + t * dy)))
    return best


@pytest.mark.parametrize("poly", [OCTAGON, USHAPE])
def test_membership_matches_winding_oracle(poly):
    zone = DangerZone.region(poly)
    rng = np.random.default_rng(5)
    pts = rng.uniform(4.0, 28.0, size=(400, 2))
    for x, y in pts:
        if dist_to_boundary(zone.vertices, x, y) < 1e-6:
            continue  # the oracle is undefined on the boundary
        assert node_in_zone(zone, (x, y)) == \
            winding_inside(zone.vertices, x, y)


def test_boundary_points_count_as_inside():
    zone = DangerZone.region(OCTAGON)
    assert node_in_zone(zone, (12.0, 8.0))       # vertex
    assert node_in_zone(zone, (16.0, 8.0))       # edge midpoint
    assert node_in_zone(zone, (22.0, 10.0))      # diagonal edge midpoint
    assert not node_in_zone(zone, (16.0, 7.999))
    assert node_in_zone(zone, (16.0, 16.0))      # deep interior


def test_clockwise_input_is_stored_counter_clockwise():
    cw = list(reversed(OCTAGON))
    zone = DangerZone.region(cw)
    x = zone.vertices[:, 0]
    y = zone.vertices[:, 1]
    area2 = float(np.dot(x, np.roll(y, -1)) - np.dot(np.roll(x, -1), y))
    assert area2 > 0
    assert np.array_equal(zone.vertices, np.asarray(OCTAGON, dtype=float))


def test_degenerate_polygons_rejected():
    with pytest.raises(ValueError):
        DangerZone.region([(0, 0), (2, 2), (2, 0), (0, 2)])  # bowtie
    with pytest.raises(ValueError):
        DangerZone.region([(0, 0), (1, 1), (2, 2)])          # zero area
    with pytest.raises(ValueError):
        DangerZone.region([(0, 0), (1, 1)])                  # too few
    with pytest.raises(ValueError):
        DangerZone.region([(0, 0), (1, 0), (1, 0), (0, 1)])  # repeated vertex


def test_zone_kind_field_consistency():
    with pytest.raises(ValueError):
        DangerZone(kind="blob", vertices=np.zeros((3, 2)))
    with pytest.raises(ValueError):
        DangerZone(kind="region", points=np.zeros((2, 2)))
    with pytest.raises(ValueError):
        DangerZone(kind="points", points=np.zeros((0, 2)))
    with pytest.raises(ValueError):
        DangerZone.region(OCTAGON, curve_constant=1.0)
    pts = DangerZone.point_set([(1.0, 2.0), (3.0, 4.0)])
    with pytest.raises(ValueError):
        node_in_zone(pts, (1.0, 2.0))
    with pytest.raises(ValueError):
        perimeter_length(pts)
    with pytest.raises(ValueError):
        well_behaved_check(pts, [2.0])


def test_vectorized_membership_equals_scalar():
    zone = DangerZone.region(USHAPE)
    rng = np.random.default_rng(6)
    pts = rng.uniform(6.0, 26.0, size=(300, 2))
    expect = reference_points_in_region(zone, pts)
    assert np.array_equal(points_in_region(zone, pts), expect)
    scalar = np.array([node_in_zone(zone, (x, y)) for x, y in pts])
    assert np.array_equal(scalar, expect)


def test_zone_node_mask_variants(graph_cache):
    g = graph_cache(256, 3.0, 3)
    assert not zone_node_mask(None, g.field.positions).any()
    pts = DangerZone.point_set([(4.0, 4.0)])
    assert not zone_node_mask(pts, g.field.positions).any()
    zone = DangerZone.region([(4, 4), (10, 4), (10, 10), (4, 10)])
    mask = zone_node_mask(zone, g.field.positions)
    assert np.array_equal(mask, points_in_region(zone, g.field.positions))
    assert 0 < mask.sum() < g.n


def test_boundary_nodes_definition(graph_cache):
    g = graph_cache(256, 3.0, 3)
    zone = DangerZone.region([(4, 4), (10, 4), (10, 10), (4, 10)])
    mask = zone_node_mask(zone, g.field.positions)
    found = boundary_nodes(g, zone)
    expect = {
        i for i in range(g.n)
        if mask[i] and any(not mask[v] for v in g.adj[i])
    }
    assert found == frozenset(expect)
    assert found  # a 6x6 box in a 16x16 field is not empty


def test_potential_clamp_and_decay():
    m = PotentialModel(sources=np.array([[0.0, 0.0]]), beta=2.0,
                       clamp_radius=1.0)
    assert potential_of_distance(m, 0.0) == 1.0
    assert potential_of_distance(m, 0.5) == 1.0  # clamped
    assert potential_of_distance(m, 2.0) == 0.25
    assert potential_at(m, (0.0, 3.0)) == 1.0 / 9.0
    m3 = PotentialModel(sources=np.array([[0.0, 0.0]]), beta=3.0)
    assert potential_of_distance(m3, 2.0) == 0.125


def test_potential_model_validation():
    src = np.array([[0.0, 0.0]])
    with pytest.raises(ValueError):
        PotentialModel(sources=src, beta=1.0)
    with pytest.raises(ValueError):
        PotentialModel(sources=src, clamp_radius=0.0)
    with pytest.raises(ValueError):
        PotentialModel(sources=np.zeros((0, 2)))


def test_sources_superpose_additively():
    a = PotentialModel(sources=np.array([[0.0, 0.0]]))
    b = PotentialModel(sources=np.array([[5.0, 5.0]]))
    both = PotentialModel(sources=np.array([[0.0, 0.0], [5.0, 5.0]]))
    rng = np.random.default_rng(7)
    for x, y in rng.uniform(-3.0, 8.0, size=(20, 2)):
        lhs = potential_at(both, (x, y))
        rhs = potential_at(a, (x, y)) + potential_at(b, (x, y))
        assert lhs == pytest.approx(rhs, rel=1e-12)


def test_path_exposure_basics():
    m = PotentialModel(sources=np.array([[0.0, 0.0]]))
    assert path_exposure(m, []) == 0.0
    assert path_exposure(m, [(0.0, 2.0)]) == 0.25
    p1 = [(0.0, 2.0), (1.0, 2.0)]
    p2 = [(2.0, 2.0), (3.0, 2.0)]
    assert path_exposure(m, p1 + p2) == \
        pytest.approx(path_exposure(m, p1) + path_exposure(m, p2), rel=1e-12)


def test_straight_path_exposure_matches_integral():
    # sum over a y=D line sampled at step h approximates the integral of
    # dx / (x^2 + D^2), which is pi/D; so S * h * D should approach pi
    m = PotentialModel(sources=np.array([[0.0, 0.0]]), beta=2.0,
                       clamp_radius=1.0)
    h = 0.25
    for d in (4.0, 8.0, 16.0):
        xs = np.arange(-600.0, 600.0 + h / 2, h)
        s = path_exposure(m, [(x, d) for x in xs])
        assert s * h * d == pytest.approx(math.pi, rel=0.02)


def test_perimeter_lengths_of_fixture_shapes():
    octagon = DangerZone.region(OCTAGON)
    assert perimeter_length(octagon) == pytest.approx(32 + 16 * math.sqrt(2),
                                                      rel=1e-12)
    ushape = DangerZone.region(USHAPE)
    assert perimeter_length(ushape) == pytest.approx(88.0, rel=1e-12)


def test_well_behaved_check_unit_square():
    # a box that covers the whole square sees all 4 sides: ratio 4
    square = DangerZone.region([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert well_behaved_check(square, [1.0]) == pytest.approx(4.0)
    with pytest.raises(ValueError):
        well_behaved_check(square, [0.0])


def test_well_behaved_check_fixture_shapes():
    octagon = DangerZone.region(OCTAGON)
    worst = well_behaved_check(octagon, [2.0, 4.0, 8.0, 16.0, 32.0])
    # two axis sides plus a diagonal corner in one box
    assert worst == pytest.approx(2 + math.sqrt(2), rel=1e-6)
    assert worst < octagon.curve_constant
    ushape = DangerZone.region(USHAPE, curve_constant=6.0)
    worst_u = well_behaved_check(ushape, [2.0, 4.0, 8.0, 16.0, 32.0])
    assert worst_u == pytest.approx(5.5, rel=1e-6)
    assert worst_u < ushape.curve_constant


def test_zone_parse_region_headers(tmp_path):
    text = "beta 2.5\nclamp 0.75\nc 5\nregion\n" + "".join(
        f"{x} {y}\n" for x, y in OCTAGON)
    path = tmp_path / "zone.txt"
    path.write_text(text, encoding="ascii")
    for spec in (parse_zone(text), load_zone(path)):
        assert spec.beta == 2.5
        assert spec.clamp_radius == 0.75
        assert spec.zone.kind == "region"
        assert spec.zone.curve_constant == 5.0
        assert np.array_equal(spec.zone.vertices, OCTAGON)
    with pytest.raises(ValueError, match="unknown zone header 'threshold'"):
        parse_zone("threshold 0.5\n" + text)


def test_zone_parse_points_and_comments():
    text = """# a pair of hazards
beta 3
clamp 0.5
points
1.5 2.5  # first
3.5 4.5
"""
    spec = parse_zone(text)
    assert spec.zone.kind == "points"
    assert spec.beta == 3.0
    assert spec.clamp_radius == 0.5
    assert np.array_equal(spec.zone.points, [[1.5, 2.5], [3.5, 4.5]])


def test_zone_parse_rejects_malformed_input():
    with pytest.raises(ValueError):
        parse_zone("beta 2\n")  # no geometry section
    with pytest.raises(ValueError):
        parse_zone("radius 2\nregion\n0 0\n1 0\n1 1\n")  # unknown header
