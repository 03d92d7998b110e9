"""Properties of whole scenarios, on small random ones.

Scenarios are drawn over every zone kind and over uniform, adaptive and
adaptive + Voronoi skeletons, at n from 256 to 1024.  A world never wakes
a node inside its zone; every query row that `run_scenario` writes has the
full-network optimum at or below the skeleton's answer; and
`sample_queries` returns as many pairs as asked, or gives up with a
`ScenarioError` after a bounded number of draws.  Under a large region
drawn over a zoneless world, where many points land inside, it returns the
pairs and resample count of the point-at-a-time reference, or gives up
with the same message.  Every scenario's text parses back to it.  A
scenario that `build_world` rejects with a `ScenarioError` (a skeleton that
wakes every active node, a degenerate Voronoi band) has failed fast, which
is allowed.
"""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from reference_oracles import reference_points_in_region, \
    reference_sample_queries
from skeleton_nav.danger import DangerZone
from skeleton_nav.harness import SCENARIO_KEYS, Scenario, ScenarioError, \
    build_world, parse_scenario, run_scenario, sample_queries

SCENARIOS = settings(max_examples=50, deadline=None)


@st.composite
def scenarios(draw, queries=st.integers(0, 4)):
    n = draw(st.sampled_from((256, 576, 1024)))
    skeleton = draw(st.sampled_from(("uniform", "adaptive", "voronoi")))
    zone = "points" if skeleton == "voronoi" else \
        draw(st.sampled_from(("none", "simple", "complex", "points")))
    metrics = ("path",)
    if zone == "points":
        metrics = draw(st.sampled_from(
            (("path",), ("exposure",), ("path", "exposure"))))
    return Scenario(
        n=n, seed=draw(st.integers(0, 2**16)), zone_kind=zone,
        danger_count=draw(st.integers(2, int(math.sqrt(n) / 4))),
        danger_seed=draw(st.integers(0, 2**16)),
        skeleton="adaptive" if skeleton == "voronoi" else skeleton,
        voronoi=skeleton == "voronoi",
        epsilon=draw(st.sampled_from((0.1, 1 / 6, 0.25))),
        width=draw(st.sampled_from((None, 1.0, 2.0))),
        queries=draw(queries), query_seed=draw(st.integers(0, 2**16)),
        metrics=metrics)


@SCENARIOS
@given(scenarios(), st.data())
def test_scenario_text_round_trips(s, data):
    # scenarios() leaves these keys at their defaults
    finite = st.floats(allow_nan=False, allow_infinity=False)
    s = replace(
        s, radio_range=data.draw(st.floats(0.5, 8.0)),
        beta=data.draw(st.none() | finite),
        clamp_radius=data.draw(st.none() | finite),
        shift=data.draw(finite), prune=data.draw(st.booleans()),
        min_pair_distance=data.draw(st.floats(0.0, 1e6)),
        entity_budget_divisor=data.draw(st.floats(0.01, 4.0)))
    text = s.canonical_text()
    assert [line.split()[0] for line in text.splitlines()] == \
        list(SCENARIO_KEYS)
    again = parse_scenario(text)
    assert again == s
    assert again.canonical_text() == text and again.digest == s.digest


@SCENARIOS
@given(scenarios())
def test_no_awake_node_lies_in_the_zone(s):
    try:
        world = build_world(s)
    except ScenarioError:
        return
    awake = world.skeleton.awake
    assert world.active[awake].all()
    if s.zone_kind in ("simple", "complex"):
        assert not reference_points_in_region(
            world.zone, world.field.positions[awake]).any()


@SCENARIOS
@given(scenarios(queries=st.integers(1, 4)))
def test_query_rows_obey_oracle_dominance(s):
    try:
        rows = run_scenario(s)
    except ScenarioError:
        return
    queries = [r for r in rows if r.row_kind == "query"]
    assert len(queries) == s.queries
    for r in queries:
        if r.hops_opt is not None and r.hops_sg is not None:
            assert r.hops_opt <= r.hops_sg
        if r.exposure_opt is not None and r.exposure_sg is not None:
            assert r.exposure_opt <= r.exposure_sg * (1 + 1e-9) + 1e-9


@settings(max_examples=25, deadline=None)  # giving up takes 1000 draws
@given(scenarios(queries=st.integers(1, 2)),
       st.sampled_from((0.0, 0.5, 1.0, 1.5)))
def test_sampling_returns_every_pair_or_gives_up(s, reach):
    # pairs 1.5 sides apart cannot exist: the field's diagonal is shorter
    s = replace(s, min_pair_distance=reach * math.sqrt(s.n))
    try:
        world = build_world(s)
    except ScenarioError:
        return
    try:
        pairs = sample_queries(world)
    except ScenarioError as exc:
        assert "gave up" in str(exc)
        return
    assert len(pairs) == s.queries
    assert world.resampled <= 1000 * s.queries


@lru_cache(maxsize=None)
def zoneless_world(n: int, seed: int):
    return build_world(Scenario(n=n, seed=seed, skeleton="uniform",
                                epsilon=1 / 6))


@st.composite
def large_region_worlds(draw):
    """A zoneless world under a star-shaped region that covers much of it,
    or, scaled up, nearly all of it, with a drawn query workload."""
    world = zoneless_world(draw(st.sampled_from((256, 576))),
                           draw(st.integers(0, 2)))
    side = world.field.side
    k = draw(st.integers(4, 10))
    jitter = np.array(draw(st.lists(st.floats(0.0, 0.8), min_size=k,
                                    max_size=k)))
    scale = draw(st.sampled_from((1.0,) * 7 + (3.0,)))
    radii = scale * side * np.array(draw(st.lists(
        st.floats(0.3, 0.75), min_size=k, max_size=k)))
    angles = 2 * math.pi * (np.arange(k) + jitter) / k
    cx, cy = side * np.array(draw(st.tuples(st.floats(0.3, 0.7),
                                            st.floats(0.3, 0.7))))
    zone = DangerZone.region(np.column_stack(
        (cx + radii * np.cos(angles), cy + radii * np.sin(angles))))
    # a near-total cover takes up to 1000 draws per query before giving up
    s = replace(world.scenario,
                queries=1 if scale > 1 else draw(st.integers(1, 4)),
                query_seed=draw(st.integers(0, 2**16)),
                min_pair_distance=side * draw(st.sampled_from(
                    (0.0, 0.0, 0.5))))
    return replace(world, scenario=s, zone=zone)


@settings(max_examples=30, deadline=None)
@given(large_region_worlds())
def test_batched_sampling_equals_the_point_loop(world):
    try:
        pairs, resampled = reference_sample_queries(world)
    except ScenarioError as exc:
        with pytest.raises(ScenarioError) as got:
            sample_queries(world)
        assert str(got.value) == str(exc)
        return
    assert sample_queries(world) == pairs
    assert world.resampled == resampled
