"""Scenario plumbing, metrics, CSV output, and CLI behavior."""

from __future__ import annotations

import math
import threading
from dataclasses import replace

import numpy as np
import pytest

import skeleton_nav.cli as cli
import skeleton_nav.harness as harness
from skeleton_nav.danger import DangerZone
from skeleton_nav.distsim import centralized_bfs, extract_path, run_bfs_flood
from skeleton_nav.field import SensorField, build_comm_graph
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
        dict(width=0.0),
        dict(epsilon=0.0),
        dict(epsilon=0.5),
        dict(epsilon=0.9),
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
    assert full.active == full.skeleton.awake == frozenset(range(256))
    assert full.potentials is None

    uni = build_world(Scenario(n=1024, seed=2, zone_kind="simple",
                               skeleton="uniform", epsilon=1 / 6))
    assert uni.skeleton.construction == "uniform"
    assert uni.active == frozenset(range(1024)) - uni.skeleton.blocked
    assert len(uni.active) < 1024

    ada = build_world(Scenario(n=1024, seed=3, zone_kind="points",
                               danger_count=3, danger_seed=7,
                               skeleton="adaptive", voronoi=True,
                               metrics=("exposure",)))
    assert ada.skeleton.construction == "adaptive"
    assert ada.potentials is not None
    assert ada.potential_packets > 0
    assert any(ada.skeleton.provenance[v] is Provenance.VORONOI_EDGE
               for v in ada.skeleton.awake)


def test_sample_queries_snap_to_streets():
    world = build_world(Scenario(n=1024, seed=2, zone_kind="simple",
                                 skeleton="uniform", epsilon=1 / 6,
                                 queries=25, query_seed=9))
    pairs = sample_queries(world)
    assert len(pairs) == 25
    for a, b in pairs:
        assert a in world.skeleton.awake
        assert b in world.skeleton.awake
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
    fake = lambda g, active, src: [1e6] * g.n  # noqa: E731
    monkeypatch.setattr(harness, "centralized_bfs", fake)
    with pytest.raises(InvariantViolation):
        run_query(world, 0, a, b)


def test_attach_without_geometry_wakes_only_the_destination():
    pos = np.array([[0.0, 0.0], [1.0, 0.0], [10.0, 10.0], [11.0, 10.0]])
    f = SensorField(n=4, side=12.0, radio_range=1.5, seed=0, positions=pos)
    g = build_comm_graph(f)
    from skeleton_nav.skeleton import SkeletonGraph

    sk = SkeletonGraph(graph=g, awake=frozenset({2}),
                       provenance={2: Provenance.GRID_STREET},
                       construction="uniform")
    res = attach_offstreet_endpoints(g, sk, 0, 3)
    # source 0 sits in a component with no street node: the expanding
    # ring gives up once its ball stops growing
    assert not res.src_attached
    assert res.dst_attached
    assert 3 in res.skeleton.awake


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


def test_cli_trace(scenario_file, capsys):
    assert cli.main(["trace", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert out
    for line in out.splitlines():
        rnd, snd, rcv, kind, value = line.split()
        assert kind == "search"
        assert int(rnd) >= 0 and int(value) >= 1
        assert snd != rcv


def test_cli_error_exit_codes(tmp_path, capsys, monkeypatch, scenario_file):
    assert cli.main(["run", str(tmp_path / "absent.scenario")]) == 1
    bad = tmp_path / "bad.scenario"
    bad.write_text("zone donut\n", encoding="ascii")
    assert cli.main(["run", str(bad)]) == 1
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


def test_offstreet_source_floods_the_attached_skeleton():
    world = build_world(Scenario(n=1024, seed=3, zone_kind="simple",
                                 skeleton="adaptive"))
    g, sk = world.graph, world.skeleton
    base_search = sk.search  # cached before any query, as sampling does
    dst = harness._main_street_component(sk)[0]
    for src in sorted(world.active - sk.awake):
        attach = attach_offstreet_endpoints(g, sk, src, dst)
        flood = run_bfs_flood(g, attach.skeleton.awake, src)
        if attach.src_attached and flood.value[dst] != INF:
            break
    assert attach.packets > 0 and src not in sk.awake
    rec = run_query(world, 0, src, dst)
    assert rec.packets_attach == attach.packets
    assert rec.reachable_sg
    assert rec.packets_sg == flood.total_packets
    assert rec.hops_sg == extract_path(flood, dst, g).hops
    assert sk.search is base_search
    assert attach.skeleton.search is not base_search
