"""Properties of whole scenarios, on small random ones.

Scenarios are drawn over every zone kind and over uniform, adaptive and
adaptive + Voronoi skeletons, at n from 256 to 1024.  A world never wakes
a node inside its zone; every query row that `run_scenario` writes has the
full-network optimum at or below the skeleton's answer; and
`sample_queries` returns as many pairs as asked, or gives up with a
`ScenarioError` after a bounded number of draws.  A scenario that
`build_world` rejects with a `ScenarioError` (a skeleton that wakes every
active node, a degenerate Voronoi band) has failed fast, which is allowed.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, strategies as st

from reference_oracles import reference_points_in_region
from skeleton_nav.harness import Scenario, ScenarioError, build_world, \
    run_scenario, sample_queries

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
@given(scenarios())
def test_no_awake_node_lies_in_the_zone(s):
    try:
        world = build_world(s)
    except ScenarioError:
        return
    awake = np.fromiter(world.skeleton.awake, dtype=np.int64)
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
