"""Scenario plumbing, metrics, CSV output, and CLI behavior."""

from __future__ import annotations

import math
import threading
from dataclasses import replace

import numpy as np
import pytest
from scipy.spatial import cKDTree

import skeleton_nav.cli as cli
import skeleton_nav.danger as danger_module
import skeleton_nav.field as field_module
import skeleton_nav.harness as harness
from skeleton_nav.adaptive import build_adaptive_skeleton
from skeleton_nav.danger import zone_node_mask
from skeleton_nav.distsim import centralized_bfs, extract_path, run_bfs_flood
from skeleton_nav.field import SensorField, build_comm_graph, node_mask
from skeleton_nav.harness import (
    CSV_COLUMNS,
    InvariantViolation,
    MetricsRecord,
    Scenario,
    ScenarioError,
    auto_tune_epsilon,
    build_world,
    csv_text,
    emit_csv,
    fixture_zone,
    parse_scenario,
    run_query,
    run_scenario,
    sample_queries,
    save_scenario,
    size_census,
)
from skeleton_nav.skeleton import Provenance, attach_offstreet_endpoints
from skeleton_nav.uniform import UniformStreetConfig, build_uniform_skeleton

INF = math.inf


def test_scenario_validation_errors():
    bad = [
        dict(n=3),
        dict(radio_range=0.0),
        dict(zone_kind="donut"),
        dict(skeleton="lattice"),
        dict(metrics=("path", "latency")),
        dict(metrics=()),
        dict(queries=-1),
        dict(min_pair_distance=-0.5),
        dict(zone_kind="points", danger_count=0),
        dict(zone_kind="points", danger_count=9),  # budget is sqrt(1024)/4=8
        dict(metrics=("exposure",)),               # needs a points zone
        dict(voronoi=True),                        # needs a points zone
        dict(zone_kind="points", danger_count=1, voronoi=True),
        dict(zone_kind="points", skeleton="uniform", voronoi=True),
        dict(zone_kind="points", skeleton="full", voronoi=True),
        dict(width=0.0),
        dict(epsilon=0.0),
        dict(epsilon=0.5),
        dict(epsilon=0.9),
        # non-finite floats and a zero budget divisor fail before any build
        dict(zone_kind="points", danger_count=1, entity_budget_divisor=0.0),
        dict(entity_budget_divisor=-1.0),
        dict(entity_budget_divisor=math.inf),
        dict(zone_kind="points", beta=math.nan, metrics=("exposure",)),
        dict(clamp_radius=math.inf),
        dict(skeleton="uniform", width=math.nan),
        dict(skeleton="adaptive", width=math.inf),
        dict(radio_range=math.nan, queries=3),
        dict(radio_range=math.inf),
        dict(epsilon=math.nan),
        dict(shift=math.nan),
        dict(min_pair_distance=math.nan),
    ]
    for kwargs in bad:
        with pytest.raises(ScenarioError):
            Scenario(**kwargs).validate()
    Scenario().validate()
    Scenario(zone_kind="points", danger_count=8).validate()


def test_scenario_round_trip_and_digest():
    s = Scenario(n=2048, radio_range=2.5, seed=3, zone_kind="points",
                 danger_count=4, danger_seed=5, beta=1.0 / 3.0,
                 clamp_radius=0.7, skeleton="adaptive", width=1.25,
                 voronoi=True, queries=7, query_seed=11,
                 min_pair_distance=2.0, metrics=("path", "exposure"))
    assert parse_scenario(s.canonical_text()) == s
    assert Scenario().digest == "7ab0f40b07de"
    assert replace(Scenario(), seed=1).digest != Scenario().digest
    assert len(s.digest) == 12


def test_scenario_parse_features(tmp_path):
    text = """# smoke scenario
n 256
seed 4        # field seed
zone none
width default
queries 3
"""
    s = parse_scenario(text)
    assert s.n == 256 and s.seed == 4 and s.width is None and s.queries == 3
    path = tmp_path / "case.scenario"
    save_scenario(s, path)
    assert harness.load_scenario(path) == s
    with pytest.raises(ScenarioError):
        parse_scenario("n 256\nwibble 3\n")
    with pytest.raises(ScenarioError):
        parse_scenario("n\n")
    for bad in ("n 64\nn 128\n", "prune 2\n", "voronoi -1\n",
                "epsilon 0.9\n"):
        with pytest.raises(ScenarioError):
            parse_scenario(bad)


def test_fixture_zones_load():
    simple = fixture_zone("simple")
    assert simple.zone.kind == "region"
    assert len(simple.zone.vertices) == 8
    assert simple.beta == 2.0 and simple.clamp_radius == 1.0
    assert simple.zone.curve_constant == 4.0
    complex_ = fixture_zone("complex")
    assert complex_.zone.curve_constant == 6.0
    with pytest.raises(FileNotFoundError):
        fixture_zone("missing")


def test_make_zone_points_uses_danger_seed():
    s = Scenario(n=1024, zone_kind="points", danger_count=3, danger_seed=21,
                 beta=2.5)
    zone, model = harness.make_zone(s, 32.0)
    expect = np.random.default_rng(21).uniform(0.0, 32.0, size=(3, 2))
    assert np.array_equal(zone.points, expect)
    assert model.beta == 2.5 and model.clamp_radius == 1.0
    none_zone, none_model = harness.make_zone(Scenario(), 32.0)
    assert none_zone is None and none_model is None
    fz, fm = harness.make_zone(Scenario(zone_kind="simple"), 32.0)
    assert fm is None
    assert np.array_equal(fz.vertices, fixture_zone("simple").zone.vertices)


def test_build_world_constructions():
    full = build_world(Scenario(n=256, seed=1))
    assert full.skeleton.construction == "full"
    assert full.active.all()
    assert full.skeleton.awake.all()
    assert not full.skeleton.blocked.any()
    assert full.potentials is None

    uni = build_world(Scenario(n=1024, seed=2, zone_kind="simple",
                               skeleton="uniform", epsilon=1 / 6))
    assert uni.skeleton.construction == "uniform"
    assert np.array_equal(~uni.active, uni.skeleton.blocked)
    assert 0 < np.count_nonzero(uni.active) < 1024

    ada = build_world(Scenario(n=1024, seed=3, zone_kind="points",
                               danger_count=3, danger_seed=7,
                               skeleton="adaptive", voronoi=True,
                               metrics=("exposure",)))
    assert ada.skeleton.construction == "adaptive"
    assert ada.potentials is not None
    assert ada.potential_packets > 0
    assert (ada.skeleton.tags == Provenance.VORONOI_EDGE.tag).any()


def test_voronoi_worlds_share_the_potential_floods():
    # the band is read off the potential phase, which runs whether or not
    # the queries measure exposure
    s = Scenario(n=1024, seed=3, zone_kind="points", danger_count=3,
                 danger_seed=7, skeleton="adaptive", voronoi=True)
    path = build_world(s)
    exposure = build_world(replace(s, metrics=("exposure",)))
    assert np.array_equal(path.skeleton.tags, exposure.skeleton.tags)
    assert path.potential_packets == exposure.potential_packets > 0


def test_sample_queries_snap_to_streets():
    world = build_world(Scenario(n=1024, seed=2, zone_kind="simple",
                                 skeleton="uniform", epsilon=1 / 6,
                                 queries=25, query_seed=9))
    pairs = sample_queries(world)
    assert len(pairs) == 25
    for a, b in pairs:
        assert world.skeleton.awake[a]
        assert world.skeleton.awake[b]
        assert a != b
    again = build_world(world.scenario)
    assert sample_queries(again) == pairs
    assert again.resampled == world.resampled


def test_sample_queries_min_pair_distance():
    world = build_world(Scenario(n=256, seed=1, queries=5, query_seed=2,
                                 min_pair_distance=14.0))
    pairs = sample_queries(world)
    assert len(pairs) == 5
    assert world.resampled > 0  # a 16-unit field forces many rejections


def test_unsatisfiable_sampling_exits_with_config_error(tmp_path):
    # a 64-node field is 8 units wide: no pair is 100 units apart
    path = tmp_path / "far.scenario"
    save_scenario(Scenario(n=64, queries=2, min_pair_distance=100.0), path)
    codes = []
    worker = threading.Thread(
        target=lambda: codes.append(cli.main(["run", str(path)])),
        daemon=True)
    worker.start()
    worker.join(timeout=60)
    assert not worker.is_alive(), "sampling did not give up"
    assert codes == [1]


def test_full_skeleton_ratios_are_exactly_one():
    s = Scenario(n=256, seed=1, zone_kind="points", danger_count=2,
                 danger_seed=3, skeleton="full", queries=8, query_seed=4,
                 metrics=("path", "exposure"))
    rows = run_scenario(s)
    agg = rows[-1]
    assert agg.excluded == 0
    for r in rows[:-1]:
        assert r.path_ratio == 1.0
        assert r.exposure_ratio == 1.0
        assert r.hops_sg == r.hops_opt
        assert r.exposure_sg == r.exposure_opt
    assert agg.path_ratio_mean == 1.0 == agg.path_ratio_max
    assert agg.exposure_ratio_mean == 1.0 == agg.exposure_ratio_max


def test_run_query_packet_bookkeeping():
    world = build_world(Scenario(n=256, seed=1, queries=1, query_seed=0))
    (a, b), = sample_queries(world)
    rec = run_query(world, 0, a, b)
    dist = centralized_bfs(world.graph, world.active, a)
    assert rec.packets_full == sum(1 for d in dist if d != INF)
    assert rec.packets_attach == 0  # full skeleton: endpoints are awake
    assert rec.packets_sg == rec.packets_full  # same awake set
    assert rec.scenario_hash == world.scenario.digest


def test_path_queries_derive_no_parents(monkeypatch):
    # a path query reads the hop flood's value at the destination, never
    # its parents: with the parent rule made to fail, an on-street,
    # path-only scenario writes the same rows
    s = Scenario(n=1024, seed=3, zone_kind="simple", skeleton="adaptive",
                 queries=20, query_seed=4, metrics=("path",))
    expect = run_scenario(s)
    assert any(r.hops_sg for r in expect)

    def fail(*args):
        raise AssertionError("a query derived the flood's parents")

    monkeypatch.setattr("skeleton_nav.distsim.lowest_parents", fail)
    assert csv_text(run_scenario(s)) == csv_text(expect)


def test_exposure_queries_reuse_world_state(monkeypatch):
    world = build_world(Scenario(
        n=1024, seed=9, zone_kind="points", danger_count=3, danger_seed=17,
        skeleton="adaptive", width=3.0, voronoi=True, queries=3,
        query_seed=21, metrics=("exposure",)))
    pairs = sample_queries(world)
    search = world.skeleton.search
    mat = world.oracle.matrix
    # no node is in a points zone: the oracle shares the comm graph's arrays
    assert world.active.all()
    assert np.shares_memory(mat.indices, world.graph.indices)
    before = [a.copy() for a in (mat.data, mat.indices, mat.indptr)]
    read = []

    def spy(search_fn):
        def call(graph, active, source, potentials, **kwargs):
            read.append(potentials)
            return search_fn(graph, active, source, potentials, **kwargs)
        return call

    for name in ("run_min_exposure", "centralized_min_exposure"):
        monkeypatch.setattr(harness, name, spy(getattr(harness, name)))
    for i, (a, b) in enumerate(pairs):
        rec = run_query(world, i, a, b)
        assert rec.packets_attach == 0 and rec.exposure_opt is not None
        assert world.skeleton.search is search
    # every search of every query reads the world's one read-only array
    pot = world.potentials
    assert len(read) >= 2 * len(pairs)
    assert all(p is pot for p in read)
    assert not pot.flags.writeable
    assert pot.dtype == np.float64 and pot.shape == (world.graph.n,)
    after = (mat.data, mat.indices, mat.indptr)
    assert all(x.dtype == y.dtype and np.array_equal(x, y)
               for x, y in zip(before, after))


@pytest.mark.parametrize("construction", ["uniform", "adaptive"])
def test_world_tests_the_zone_once(monkeypatch, construction):
    # the skeleton builder tests the whole field once per world, and the
    # world reads its zone mask off the skeleton; the uniform perimeter
    # search tests only the sensors near the boundary.  Builders called
    # directly wake the same nodes
    s = Scenario(n=1024, seed=4, zone_kind="complex", skeleton=construction,
                 epsilon=1 / 6)
    world = build_world(s)
    calls = []
    tested = danger_module.points_in_region
    monkeypatch.setattr(danger_module, "points_in_region",
                        lambda *a: calls.append(len(a[1])) or tested(*a))
    again = build_world(s)
    assert np.array_equal(again.active, ~again.skeleton.blocked)
    assert calls[0] == s.n
    assert len(calls) == (2 if construction == "uniform" else 1)
    assert all(k < s.n for k in calls[1:])
    assert np.array_equal(again.skeleton.awake, world.skeleton.awake)
    zone, g = world.zone, world.graph
    if construction == "uniform":
        alone = build_uniform_skeleton(g, zone,
                                       UniformStreetConfig(epsilon=1 / 6))
    else:
        alone = build_adaptive_skeleton(g, zone)
    assert np.array_equal(alone.awake, world.skeleton.awake)
    assert np.array_equal(alone.blocked, world.skeleton.blocked)


def test_disconnected_pairs_are_flagged_and_excluded():
    s = Scenario(n=64, radio_range=1.0, seed=0, skeleton="full",
                 queries=10, query_seed=0)
    world = build_world(s)
    main = harness._main_street_component(world.skeleton)
    assert 1 < len(main) < 64  # r=1 shreds the graph into pieces
    stray = min(set(range(64)) - set(main))
    rec = run_query(world, 0, main[0], stray)
    assert not rec.reachable_full
    assert rec.flagged
    assert rec.path_ratio is None

    # sampling sticks to the main component, so a scenario run over the
    # same shredded graph serves every query
    rows = run_scenario(s)
    agg = rows[-1]
    assert agg.excluded == 0
    assert agg.reachable_full
    assert all(set(pair) <= set(main) for pair in sample_queries(world))
    assert agg.path_ratio_mean == 1.0  # full skeleton, identical searches


def test_aggregate_arithmetic():
    s = Scenario(n=256, queries=0)
    world = build_world(s)
    mk = lambda ratio, flagged: MetricsRecord(  # noqa: E731
        scenario_hash=s.digest, row_kind="query", reachable_full=not flagged,
        reachable_sg=not flagged, path_ratio=None if flagged else ratio,
        flagged=flagged, packets_sg=10, packets_full=20)
    rows = [mk(1.0, False), mk(2.0, False), mk(9.0, True)]
    agg = harness.aggregate(world, rows)
    assert agg.excluded == 1
    assert agg.query_index == 2
    assert agg.path_ratio_mean == 1.5
    assert agg.path_ratio_max == 2.0
    assert agg.packets_sg == 30 and agg.packets_full == 60
    assert agg.skeleton_size == world.skeleton.size


def test_invariant_guard_trips_on_a_lying_oracle(monkeypatch):
    world = build_world(Scenario(n=256, seed=1, queries=1, query_seed=0))
    (a, b), = sample_queries(world)
    fake = lambda g, active, src, target: 1e6  # noqa: E731
    monkeypatch.setattr(harness, "centralized_bfs", fake)
    with pytest.raises(InvariantViolation):
        run_query(world, 0, a, b)


def exposure_query():
    """A one-query exposure world on the full skeleton, and its pair."""
    world = build_world(Scenario(
        n=256, seed=1, zone_kind="points", danger_count=2, skeleton="full",
        queries=1, query_seed=0, metrics=("exposure",)))
    (a, b), = sample_queries(world)
    return world, a, b


def test_invariant_guard_trips_on_a_lying_exposure_oracle(monkeypatch):
    world, a, b = exposure_query()
    fake = lambda g, active, src, pot, target, limit=None: 1e12  # noqa: E731
    monkeypatch.setattr(harness, "centralized_min_exposure", fake)
    with pytest.raises(InvariantViolation):
        run_query(world, 0, a, b)


def test_capped_exposure_oracle_falls_back_when_the_skeleton_under_reports(
        monkeypatch):
    # a skeleton answer of 0 caps the oracle below the true optimum, so the
    # capped search reads inf at dst; the uncapped rerun must find the
    # optimum and trip the guard
    world, a, b = exposure_query()
    assert run_query(world, 0, a, b).exposure_opt > 0
    flood, oracle = harness.run_min_exposure, harness.centralized_min_exposure
    limits = []

    def under_reporting(*args, **kwargs):
        run = flood(*args, **kwargs)
        return replace(run, local_value=[0.0] * len(run.local_value))

    def spy(*args, **kwargs):
        limits.append(kwargs.get("limit"))
        return oracle(*args, **kwargs)

    monkeypatch.setattr(harness, "run_min_exposure", under_reporting)
    monkeypatch.setattr(harness, "centralized_min_exposure", spy)
    with pytest.raises(InvariantViolation):
        run_query(world, 0, a, b)
    assert limits == [harness._RATIO_SLACK, None]


def test_attach_without_geometry_wakes_only_the_destination():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])
    f = SensorField(n=4, side=12.0, radio_range=1.5, seed=0, positions=pos)
    g = build_comm_graph(f)
    from skeleton_nav.skeleton import SkeletonGraph, tagged

    sk = SkeletonGraph(graph=g, tags=tagged(node_mask(4, [2]),
                                            Provenance.GRID_STREET),
                       blocked=np.zeros(4, dtype=bool), construction="uniform")
    res = attach_offstreet_endpoints(g, sk, 0, 3)
    # source 0 sits in a component with no street node: the expanding
    # ring gives up once its ball stops growing
    assert not res.src_attached
    assert res.dst_attached
    assert res.skeleton.awake[3]


def test_csv_layout_and_determinism(tmp_path):
    s = Scenario(n=256, seed=1, queries=4, query_seed=2)
    text1 = csv_text(run_scenario(s))
    text2 = csv_text(run_scenario(s))
    assert text1 == text2
    lines = text1.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 4 + 1
    assert lines[-1].split(",")[1] == "aggregate"
    path = tmp_path / "out.csv"
    emit_csv(run_scenario(s), path)
    assert path.read_text(encoding="ascii") == text1
    with pytest.raises(ValueError):
        emit_csv([], tmp_path / "never.csv")


def test_csv_aggregate_only_and_distinct_hashes():
    rows_a = run_scenario(Scenario(n=256, seed=1, queries=0))
    assert len(rows_a) == 1
    assert rows_a[0].row_kind == "aggregate"
    rows_b = run_scenario(Scenario(n=256, seed=2, queries=0))
    text = csv_text(rows_a + rows_b)
    hashes = {line.split(",")[0] for line in text.splitlines()[1:]}
    assert len(hashes) == 2


def test_size_census():
    s = Scenario(n=1024, seed=0, zone_kind="simple", skeleton="adaptive")
    table = size_census(s, 3)
    assert table["seeds"] == [0, 1, 2]
    assert len(table["sizes"]) == 3
    assert table["mean"] == pytest.approx(np.mean(table["sizes"]))
    assert table["fractions"][0] == table["sizes"][0] / 1024
    with pytest.raises(ScenarioError):
        size_census(Scenario(skeleton="full"), 3)


def test_census_worlds_never_build_the_comm_graph(monkeypatch):
    """Skeleton sizes need positions only; the full CSR waits for a search."""
    build_rows = field_module._csr_arrays

    def rows_near_the_zone_only(fld):
        # the perimeter search builds the graph of its band of sensors only
        if fld.n == 4096:
            raise AssertionError("the full comm graph was built")
        return build_rows(fld)

    cases = (("uniform", "complex"), ("adaptive", "complex"),
             ("adaptive", "none"))
    worlds = []
    with monkeypatch.context() as patch:
        patch.setattr(field_module, "_csr_arrays", rows_near_the_zone_only)
        for skeleton, zone in cases:
            s = Scenario(n=4096, seed=5, zone_kind=zone, skeleton=skeleton,
                         epsilon=1 / 6, queries=0)
            worlds.append(build_world(s))
    positions = worlds[0].field.positions
    eager = len(cKDTree(positions).query_pairs(3.0))
    for world in worlds:
        assert world.skeleton.size > 0
        active = world.active
        assert active.dtype == bool and not active.flags.writeable
        assert np.array_equal(
            active, ~zone_node_mask(world.zone, world.field.positions))
        assert world.graph.edge_count() == eager


def test_auto_tune_epsilon_hits_target():
    base = Scenario(n=1024, seed=0, skeleton="uniform")
    eps, size = auto_tune_epsilon(base, 300.0)
    assert abs(size - 300.0) <= 30.0
    assert 0.02 < eps < 0.45
    with pytest.raises(ScenarioError):
        auto_tune_epsilon(Scenario(skeleton="adaptive"), 300.0)


@pytest.fixture()
def scenario_file(tmp_path):
    path = tmp_path / "case.scenario"
    save_scenario(Scenario(n=256, seed=1, queries=3, query_seed=2), path)
    return path


def test_cli_run_stdout_and_file(scenario_file, tmp_path, capsys):
    assert cli.main(["run", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert out == csv_text(run_scenario(
        Scenario(n=256, seed=1, queries=3, query_seed=2)))
    target = tmp_path / "metrics.csv"
    assert cli.main(["run", str(scenario_file), "--out", str(target)]) == 0
    assert target.read_text(encoding="ascii") == out


def test_cli_overrides(tmp_path, capsys):
    path = tmp_path / "uni.scenario"
    save_scenario(Scenario(n=1024, seed=2, skeleton="uniform",
                           epsilon=1 / 6), path)
    assert cli.main(["census", str(path), "--seeds", "2"]) == 0
    base = capsys.readouterr().out
    assert "mean" in base and base.count("seed ") == 2
    assert cli.main(["census", str(path), "--seeds", "2",
                     "--epsilon", "0.3"]) == 0
    denser = capsys.readouterr().out
    size = lambda text: int(text.splitlines()[1].split()[3])  # noqa: E731
    assert size(denser) > size(base)
    args = cli.make_parser().parse_args(
        ["run", str(path), "--width", "2.5", "--shift", "0.5", "--prune"])
    assert cli._load(args) == replace(harness.load_scenario(path),
                                      width=2.5, shift=0.5, prune=True)


def test_cli_trace(scenario_file, capsys):
    assert cli.main(["trace", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert out
    for line in out.splitlines():
        rnd, snd, rcv, kind, value = line.split()
        assert kind == "search"
        assert int(rnd) >= 0 and int(value) >= 1
        assert snd != rcv


def test_cli_trace_without_queries_fails_before_building(
        tmp_path, capsys, monkeypatch):
    def build_world(s):
        raise AssertionError("built a world for a trace with no query")

    monkeypatch.setattr(cli, "build_world", build_world)
    path = tmp_path / "none.scenario"
    save_scenario(Scenario(n=256, seed=1, queries=0), path)
    assert cli.main(["trace", str(path)]) == 1
    assert "trace needs a scenario with queries" in capsys.readouterr().err


def test_cli_error_exit_codes(tmp_path, capsys, monkeypatch, scenario_file):
    assert cli.main(["run", str(tmp_path / "absent.scenario")]) == 1
    bad = tmp_path / "bad.scenario"
    bad.write_text("zone donut\n", encoding="ascii")
    assert cli.main(["run", str(bad)]) == 1
    capsys.readouterr()
    zero = tmp_path / "divisor.scenario"
    zero.write_text("n 256\nzone points\ndanger_count 1\n"
                    "entity_budget_divisor 0\n", encoding="ascii")
    assert cli.main(["run", str(zero)]) == 1
    assert "error:" in capsys.readouterr().err
    monkeypatch.setattr(cli, "run_scenario",
                        lambda s: (_ for _ in ()).throw(
                            InvariantViolation("synthetic")))
    assert cli.main(["run", str(scenario_file)]) == 2
    assert "invariant" in capsys.readouterr().err


def test_degenerate_voronoi_band_is_rejected(tmp_path, capsys):
    # an 8-unit field is about three hops across, so nearly every node is
    # equally far from both danger points
    s = Scenario(n=64, seed=1, zone_kind="points", danger_count=2,
                 danger_seed=1, skeleton="adaptive", voronoi=True,
                 metrics=("exposure",), queries=2)
    with pytest.raises(ScenarioError, match="degenerate Voronoi band"):
        build_world(s)
    path = tmp_path / "degenerate.scenario"
    save_scenario(s, path)
    assert cli.main(["run", str(path)]) == 1
    assert "degenerate Voronoi band" in capsys.readouterr().err


@pytest.mark.parametrize("n, width, zone_kind, skeleton", [
    (256, 50.0, "none", "adaptive"),
    (256, 50.0, "none", "uniform"),
    (4096, 40.0, "simple", "adaptive"),
])
def test_street_wide_enough_to_wake_everything_is_rejected(
        tmp_path, capsys, n, width, zone_kind, skeleton):
    s = Scenario(n=n, seed=1, zone_kind=zone_kind, skeleton=skeleton,
                 width=width, queries=2)
    with pytest.raises(ScenarioError, match="wakes all"):
        build_world(s)
    path = tmp_path / "wide.scenario"
    save_scenario(s, path)
    assert cli.main(["run", str(path)]) == 1
    assert "no sparser than the full network" in capsys.readouterr().err


def test_street_too_narrow_to_wake_anything_is_rejected(tmp_path, capsys):
    # uniform streets this narrow fail their own width check
    s = Scenario(n=256, seed=1, skeleton="adaptive", width=0.001)
    with pytest.raises(ScenarioError, match="wakes none of the 256 active"):
        build_world(s)
    path = tmp_path / "narrow.scenario"
    save_scenario(s, path)
    assert cli.main(["run", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "widen the streets" in err


def test_one_out_of_zone_search_graph_per_world():
    # the skeleton blocks exactly the zone's nodes, so the oracles read the
    # attach ring's graph; a region world builds it on first use
    region = build_world(Scenario(n=1024, seed=3, zone_kind="simple",
                                  skeleton="adaptive"))
    assert "active" not in vars(region.skeleton)
    assert region.oracle is region.skeleton.active
    assert np.array_equal(region.oracle.mask, region.active)
    assert not region.active.all()
    # the potential phase builds it up front, on the skeleton, and the
    # copy that embeds the Voronoi streets shares it
    points = build_world(Scenario(
        n=1024, seed=9, zone_kind="points", danger_count=3, danger_seed=17,
        skeleton="adaptive", width=3.0, voronoi=True, metrics=("exposure",)))
    built = vars(points.skeleton)["active"]
    assert points.oracle is built and points.skeleton.active is built
    assert built.mask.all()


def test_offstreet_source_floods_the_attached_skeleton():
    world = build_world(Scenario(n=1024, seed=3, zone_kind="simple",
                                 skeleton="adaptive"))
    g, sk = world.graph, world.skeleton
    base_search = sk.search  # cached before any query, as sampling does
    dst = harness._main_street_component(sk)[0]
    for src in np.flatnonzero(world.active & ~sk.awake).tolist():
        attach = attach_offstreet_endpoints(g, sk, src, dst)
        flood = run_bfs_flood(g, attach.skeleton.awake, src)
        if attach.src_attached and flood.value[dst] != INF:
            break
    assert attach.packets > 0 and not sk.awake[src]
    rec = run_query(world, 0, src, dst)
    assert rec.packets_attach == attach.packets
    assert rec.reachable_sg
    assert rec.packets_sg == flood.total_packets
    assert rec.hops_sg == len(extract_path(flood, dst)) - 1
    assert sk.search is base_search
    assert attach.skeleton.search is not base_search
