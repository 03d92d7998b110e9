"""Scenario configuration, experiment orchestration, and CSV emission.

A scenario is a flat key-value text file describing one experiment: the
field, the danger, the skeleton construction, and the query workload.
Running it produces one MetricsRecord per query plus an aggregate record,
and the CSV writer reproduces its output byte for byte on reruns.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import cached_property
from importlib import resources

import numpy as np
from scipy.sparse.csgraph import connected_components

from .danger import DangerZone, PotentialModel, ZoneSpec, node_in_zone, \
    parse_zone, zone_node_mask
from .field import ActiveGraph, CommGraph, SensorField, active_graph, \
    build_comm_graph, generate_field, nearest_node
from .skeleton import Provenance, SkeletonGraph, attach_offstreet_endpoints, \
    default_street_width
from .uniform import UniformStreetConfig, build_uniform_skeleton
from .adaptive import build_adaptive_skeleton, build_quadtree, \
    detect_voronoi_nodes, embed_voronoi_streets
from .distsim import INF, centralized_bfs, centralized_min_exposure, \
    extract_path, run_bfs_flood, run_min_exposure, run_potential_phase

ZONE_KINDS = ("none", "simple", "complex", "points")
SKELETON_KINDS = ("full", "uniform", "adaptive")
METRIC_NAMES = ("path", "exposure")

#: Column order of emitted CSV files.  Query rows fill the per-query
#: columns and leave the aggregate ones empty; the aggregate row does the
#: opposite.  Documented in the README; changing it breaks golden files.
CSV_COLUMNS = (
    "scenario_hash", "row_kind", "query_index", "src", "dst",
    "reachable_full", "reachable_sg", "hops_sg", "hops_opt", "path_ratio",
    "exposure_sg", "exposure_opt", "exposure_ratio",
    "packets_attach", "packets_sg", "packets_full", "flagged",
    "skeleton_size", "skeleton_fraction",
    "path_ratio_mean", "path_ratio_max",
    "exposure_ratio_mean", "exposure_ratio_max",
    "resampled", "excluded",
)


class InvariantViolation(RuntimeError):
    """A build-breaking inconsistency, e.g. the oracle lost to the skeleton."""


class ScenarioError(ValueError):
    """Scenario file or parameter problem."""


@dataclass(frozen=True)
class Scenario:
    """One reproducible experiment configuration."""

    n: int = 1024
    radio_range: float = 3.0
    seed: int = 0
    zone_kind: str = "none"
    danger_count: int = 3          # points zones only
    danger_seed: int = 0
    beta: float | None = None      # None -> zone fixture default
    clamp_radius: float | None = None
    skeleton: str = "full"
    epsilon: float = 0.05          # uniform only
    width: float | None = None     # None -> default_street_width(r)
    shift: float = 0.0
    prune: bool = False
    voronoi: bool = False          # adaptive only, needs a points zone
    queries: int = 0
    query_seed: int = 0
    min_pair_distance: float = 0.0
    metrics: tuple[str, ...] = ("path",)
    entity_budget_divisor: float = 4.0

    def validate(self) -> None:
        if self.n < 4:
            raise ScenarioError("n must be at least 4")
        if self.radio_range <= 0:
            raise ScenarioError("radio range must be positive")
        if self.zone_kind not in ZONE_KINDS:
            raise ScenarioError(f"unknown zone kind {self.zone_kind!r}")
        if self.skeleton not in SKELETON_KINDS:
            raise ScenarioError(f"unknown skeleton kind {self.skeleton!r}")
        for m in self.metrics:
            if m not in METRIC_NAMES:
                raise ScenarioError(f"unknown metric {m!r}")
        if not self.metrics:
            raise ScenarioError("at least one metric is required")
        if self.queries < 0:
            raise ScenarioError("query count must be nonnegative")
        if self.min_pair_distance < 0:
            raise ScenarioError("min pair distance must be nonnegative")
        if self.zone_kind == "points":
            if self.danger_count < 1:
                raise ScenarioError("points zone needs danger_count >= 1")
            budget = math.sqrt(self.n) / self.entity_budget_divisor
            if self.danger_count > budget:
                raise ScenarioError(
                    f"danger_count {self.danger_count} exceeds the entity "
                    f"budget sqrt(n)/{self.entity_budget_divisor:g} = "
                    f"{budget:g}")
        if "exposure" in self.metrics and self.zone_kind != "points":
            raise ScenarioError("exposure metrics need a points zone")
        if self.voronoi and self.zone_kind != "points":
            raise ScenarioError("voronoi streets need a points zone")
        if self.voronoi and self.danger_count < 2:
            raise ScenarioError("voronoi streets need at least two dangers")
        if self.width is not None and self.width <= 0:
            raise ScenarioError("street width must be positive")
        if not 0.0 < self.epsilon < 0.5:
            raise ScenarioError("epsilon must lie in (0, 1/2)")

    def canonical_text(self) -> str:
        """Stable serialization; also the hashing preimage."""
        lines = [
            f"n {self.n}",
            f"r {_fmt(self.radio_range)}",
            f"seed {self.seed}",
            f"zone {self.zone_kind}",
            f"danger_count {self.danger_count}",
            f"danger_seed {self.danger_seed}",
            f"beta {_fmt_opt(self.beta)}",
            f"clamp {_fmt_opt(self.clamp_radius)}",
            f"skeleton {self.skeleton}",
            f"epsilon {_fmt(self.epsilon)}",
            f"width {_fmt_opt(self.width)}",
            f"shift {_fmt(self.shift)}",
            f"prune {int(self.prune)}",
            f"voronoi {int(self.voronoi)}",
            f"queries {self.queries}",
            f"query_seed {self.query_seed}",
            f"min_pair_distance {_fmt(self.min_pair_distance)}",
            f"metrics {','.join(self.metrics)}",
            f"entity_budget_divisor {_fmt(self.entity_budget_divisor)}",
        ]
        return "\n".join(lines) + "\n"

    @property
    def digest(self) -> str:
        h = hashlib.sha256(self.canonical_text().encode("ascii"))
        return h.hexdigest()[:12]


def _fmt(x: float) -> str:
    # repr round-trips exactly, so parse(canonical_text) == self
    return repr(float(x))


def _fmt_opt(x: float | None) -> str:
    return "default" if x is None else _fmt(x)


def save_scenario(s: Scenario, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(s.canonical_text())


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="ascii") as fh:
        text = fh.read()
    return parse_scenario(text)


def parse_scenario(text: str) -> Scenario:
    fields: dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 1)
        if len(parts) != 2:
            raise ScenarioError(f"bad scenario line: {raw!r}")
        if parts[0] in fields:
            raise ScenarioError(f"duplicate scenario key {parts[0]!r}")
        fields[parts[0]] = parts[1].strip()

    optional = {"beta", "clamp", "width"}

    def take(key, conv, default):
        if key not in fields:
            return default
        val = fields.pop(key)
        if val == "default" and key in optional:
            return None
        return conv(val)

    s = Scenario(
        n=take("n", int, 1024),
        radio_range=take("r", float, 3.0),
        seed=take("seed", int, 0),
        zone_kind=take("zone", str, "none"),
        danger_count=take("danger_count", int, 3),
        danger_seed=take("danger_seed", int, 0),
        beta=take("beta", float, None),
        clamp_radius=take("clamp", float, None),
        skeleton=take("skeleton", str, "full"),
        epsilon=take("epsilon", float, 0.05),
        width=take("width", float, None),
        shift=take("shift", float, 0.0),
        prune=take("prune", _flag, False),
        voronoi=take("voronoi", _flag, False),
        queries=take("queries", int, 0),
        query_seed=take("query_seed", int, 0),
        min_pair_distance=take("min_pair_distance", float, 0.0),
        metrics=tuple(take("metrics", str, "path").split(",")),
        entity_budget_divisor=take("entity_budget_divisor", float, 4.0),
    )
    if fields:
        raise ScenarioError(f"unknown scenario keys: {sorted(fields)}")
    s.validate()
    return s


def _flag(text: str) -> bool:
    if text not in ("0", "1"):
        raise ScenarioError(f"flag must be 0 or 1, got {text!r}")
    return text == "1"


def fixture_zone(name: str) -> ZoneSpec:
    """Load one of the shipped polygon fixtures ('simple' or 'complex')."""
    ref = resources.files("skeleton_nav").joinpath("data", f"{name}.zone")
    return parse_zone(ref.read_text(encoding="ascii"))


@dataclass(eq=False)
class World:
    """Everything run_scenario builds before queries run."""

    scenario: Scenario
    field: SensorField
    graph: CommGraph
    zone: DangerZone | None
    active: frozenset[int]
    skeleton: SkeletonGraph
    potentials: list[float] | None
    potential_packets: int
    resampled: int = 0

    @cached_property
    def oracle(self) -> ActiveGraph:
        """The oracles' input over the active set, built on first use.

        `build_world` sets it up front when the potential phase already
        built one, so the active set is never induced twice.
        """
        return active_graph(self.graph, self.active)


@dataclass(frozen=True)
class MetricsRecord:
    """One CSV row: a single query or the scenario aggregate."""

    scenario_hash: str
    row_kind: str                   # "query" | "aggregate"
    query_index: int = -1
    src: int = -1
    dst: int = -1
    reachable_full: bool = False
    reachable_sg: bool = False
    hops_sg: float | None = None
    hops_opt: float | None = None
    path_ratio: float | None = None
    exposure_sg: float | None = None
    exposure_opt: float | None = None
    exposure_ratio: float | None = None
    packets_attach: int = 0
    packets_sg: int = 0
    packets_full: int = 0
    flagged: bool = False
    skeleton_size: int | None = None
    skeleton_fraction: float | None = None
    path_ratio_mean: float | None = None
    path_ratio_max: float | None = None
    exposure_ratio_mean: float | None = None
    exposure_ratio_max: float | None = None
    resampled: int | None = None
    excluded: int | None = None


def make_zone(s: Scenario, side: float) -> tuple[DangerZone | None,
                                                 PotentialModel | None]:
    """The scenario's danger zone and, for point dangers, its potential."""
    if s.zone_kind == "none":
        return None, None
    if s.zone_kind == "points":
        rng = np.random.default_rng(s.danger_seed)
        pts = rng.uniform(0.0, side, size=(s.danger_count, 2))
        zone = DangerZone.point_set([tuple(p) for p in pts])
        model = PotentialModel(
            sources=zone.source_points(),
            beta=2.0 if s.beta is None else s.beta,
            clamp_radius=1.0 if s.clamp_radius is None else s.clamp_radius)
        return zone, model
    return fixture_zone(s.zone_kind).zone, None


def build_world(s: Scenario) -> World:
    """Field, graph, zone, skeleton, and (if needed) the potential field.

    Raises ScenarioError when the Voronoi band comes out degenerate.
    """
    s.validate()
    f = generate_field(s.n, s.radio_range, s.seed)
    g = build_comm_graph(f)
    zone, model = make_zone(s, f.side)
    outside = ~zone_node_mask(zone, f.positions)
    active = frozenset(np.flatnonzero(outside).tolist())

    potentials = None
    pot_packets = 0
    phase = None
    oracle = None
    if "exposure" in s.metrics:
        assert model is not None  # validate() ties exposure to points zones
        oracle = active_graph(g, outside)
        phase = run_potential_phase(g, oracle, model)
        potentials = phase.potentials
        pot_packets = phase.packets

    if s.skeleton == "full":
        prov = {v: Provenance.GRID_STREET for v in active}
        sk = SkeletonGraph(graph=g, awake=active, provenance=prov,
                           construction="full",
                           blocked=frozenset(range(s.n)) - active)
    elif s.skeleton == "uniform":
        cfg = UniformStreetConfig(epsilon=s.epsilon, width=s.width,
                                  shift=s.shift, prune=s.prune)
        sk = build_uniform_skeleton(g, zone, cfg)
    else:
        sk = build_adaptive_skeleton(g, zone, width=s.width)
        if s.voronoi:
            tables = phase.distance_tables if phase is not None else None
            band = detect_voronoi_nodes(
                g, model.sources, active=outside, distance_tables=tables)
            if band.degenerate:
                raise ScenarioError(
                    f"degenerate Voronoi band: {len(band.nodes)} of "
                    f"{len(active)} active nodes are about equally far from "
                    "two danger points, so its streets would wake nearly "
                    "the whole network")
            sk = embed_voronoi_streets(sk, band)
    world = World(scenario=s, field=f, graph=g, zone=zone, active=active,
                  skeleton=sk, potentials=potentials,
                  potential_packets=pot_packets)
    if oracle is not None:
        world.oracle = oracle  # fills the cached property
    return world


def _main_street_component(sk: SkeletonGraph) -> list[int]:
    """Largest connected component of the awake-induced subgraph, sorted.

    Street construction can leave stray awake scraps (a handful of
    equidistant nodes far from any street, a strip thinned to nothing by a
    sampling gap).  Those scraps cannot carry traffic, so only the main
    component counts as addressable street.  Ties go to the component
    containing the lowest node id.
    """
    search = sk.search
    _, labels = connected_components(search.matrix, directed=False)
    ids = np.flatnonzero(search.mask)
    comp = labels[ids]
    size = np.bincount(comp)[comp]
    # ids ascend, so argmax picks the largest component holding the lowest id
    return ids[comp == comp[np.argmax(size)]].tolist()


def sample_queries(world: World) -> list[tuple[int, int]]:
    """Random point pairs snapped to the nearest usable street node.

    Queries address the skeleton, so endpoints snap to the main street
    component; a client whose nearest awake node is a disconnected scrap
    would simply keep ringing until a connected street answered.  The full
    graph oracle then runs between the same two nodes.  Points landing
    inside the zone are resampled, as are pairs closer than
    min_pair_distance and pairs whose two snaps collide; the resample count
    is recorded on the world.  Over 1000 resamples per query means no valid
    pair can be found, and raises ScenarioError.
    """
    s = world.scenario
    rng = np.random.default_rng(s.query_seed)
    cand = _main_street_component(world.skeleton)
    zone = world.zone
    side = world.field.side
    pairs: list[tuple[int, int]] = []
    resampled = 0

    def reject() -> None:
        nonlocal resampled
        resampled += 1
        if resampled > 1000 * s.queries:
            raise ScenarioError(f"gave up after {resampled} rejected draws "
                                f"with {len(pairs)} of {s.queries} pairs")

    def draw_point() -> tuple[float, float]:
        while True:
            x, y = rng.uniform(0.0, side, size=2)
            if zone is not None and zone.kind == "region" and \
                    node_in_zone(zone, (x, y)):
                reject()
                continue
            return float(x), float(y)

    while len(pairs) < s.queries:
        p = draw_point()
        q = draw_point()
        if math.hypot(p[0] - q[0], p[1] - q[1]) < s.min_pair_distance:
            reject()
            continue
        a = nearest_node(world.field, p, cand)
        b = nearest_node(world.field, q, cand)
        if a == b:
            reject()
            continue
        pairs.append((a, b))
    world.resampled = resampled
    return pairs


_RATIO_SLACK = 1e-9


def run_query(world: World, index: int, src: int, dst: int) -> MetricsRecord:
    """One src/dst pair on the skeleton and on the full active graph."""
    s = world.scenario
    g = world.graph
    attach = attach_offstreet_endpoints(g, world.skeleton, src, dst)
    sk = attach.skeleton
    pk_attach = attach.packets
    pk_sg = 0
    pk_full = 0

    hops_sg = hops_opt = path_ratio = None
    exp_sg = exp_opt = exp_ratio = None
    reach_full = reach_sg = False

    if "path" in s.metrics:
        run = run_bfs_flood(g, sk.search, src)
        pk_sg += run.total_packets
        res = extract_path(run, dst, g)
        dist_full = centralized_bfs(g, world.oracle, src)
        pk_full += int(world.oracle.component_sizes[src])
        reach_full = dist_full[dst] != INF
        reach_sg = res.reachable
        if reach_full:
            hops_opt = dist_full[dst]
        if res.reachable:
            hops_sg = float(res.hops)
        if reach_full and res.reachable:
            if hops_opt > hops_sg * (1 + _RATIO_SLACK):
                raise InvariantViolation(
                    f"query {index}: full-graph BFS ({hops_opt}) beat the "
                    f"skeleton ({hops_sg}); oracle dominance broken")
            path_ratio = hops_sg / hops_opt if hops_opt > 0 else 1.0

    if "exposure" in s.metrics:
        pot = world.potentials
        run = run_min_exposure(g, sk.search, src, pot)
        pk_sg += run.total_packets
        res = extract_path(run, dst, g, potentials=pot)
        best = centralized_min_exposure(g, world.oracle, src, pot)
        full_ok = best[dst] != INF
        if "path" not in s.metrics:
            reach_full, reach_sg = full_ok, res.reachable
        if full_ok:
            exp_opt = best[dst]
        if res.reachable:
            exp_sg = run.value[dst]
        if full_ok and res.reachable:
            if exp_opt > exp_sg * (1 + _RATIO_SLACK) + _RATIO_SLACK:
                raise InvariantViolation(
                    f"query {index}: full-graph exposure ({exp_opt}) beat "
                    f"the skeleton ({exp_sg}); oracle dominance broken")
            exp_ratio = exp_sg / exp_opt if exp_opt > 0 else 1.0

    flagged = not reach_full
    return MetricsRecord(
        scenario_hash=s.digest, row_kind="query", query_index=index,
        src=src, dst=dst, reachable_full=reach_full, reachable_sg=reach_sg,
        hops_sg=hops_sg, hops_opt=hops_opt, path_ratio=path_ratio,
        exposure_sg=exp_sg, exposure_opt=exp_opt, exposure_ratio=exp_ratio,
        packets_attach=pk_attach, packets_sg=pk_sg, packets_full=pk_full,
        flagged=flagged)


def aggregate(world: World, rows: list[MetricsRecord]) -> MetricsRecord:
    """The scenario summary row; flagged rows are excluded from ratios."""
    s = world.scenario
    kept = [r for r in rows if not r.flagged]
    pr = [r.path_ratio for r in kept if r.path_ratio is not None]
    er = [r.exposure_ratio for r in kept if r.exposure_ratio is not None]
    return MetricsRecord(
        scenario_hash=s.digest, row_kind="aggregate",
        query_index=len(kept),
        reachable_full=all(r.reachable_full for r in rows) if rows else True,
        reachable_sg=all(r.reachable_sg for r in kept) if kept else True,
        packets_attach=sum(r.packets_attach for r in rows),
        packets_sg=sum(r.packets_sg for r in rows),
        packets_full=sum(r.packets_full for r in rows),
        skeleton_size=world.skeleton.size,
        skeleton_fraction=world.skeleton.fraction,
        path_ratio_mean=float(np.mean(pr)) if pr else None,
        path_ratio_max=max(pr) if pr else None,
        exposure_ratio_mean=float(np.mean(er)) if er else None,
        exposure_ratio_max=max(er) if er else None,
        resampled=world.resampled,
        excluded=len(rows) - len(kept))


def run_scenario(s: Scenario) -> list[MetricsRecord]:
    """Build the world, run every query, append the aggregate record."""
    world = build_world(s)
    pairs = sample_queries(world)
    rows = [run_query(world, i, a, b) for i, (a, b) in enumerate(pairs)]
    rows.append(aggregate(world, rows))
    return rows


def size_census(s: Scenario, seeds: int) -> dict:
    """Skeleton sizes over `seeds` consecutive seeds starting at s.seed."""
    if s.skeleton == "full":
        raise ScenarioError("size census needs a sparse skeleton kind")
    sizes = []
    for k in range(seeds):
        world = build_world(replace(s, seed=s.seed + k, queries=0))
        sizes.append(world.skeleton.size)
    arr = np.asarray(sizes, dtype=float)
    return {
        "seeds": list(range(s.seed, s.seed + seeds)),
        "sizes": sizes,
        "fractions": [x / s.n for x in sizes],
        "mean": float(arr.mean()),
        "std": float(arr.std()),
    }


def auto_tune_epsilon(s: Scenario, target_size: float, tol: float = 0.10,
                      lo: float = 0.02, hi: float = 0.45,
                      max_iter: int = 12) -> tuple[float, int]:
    """Find epsilon whose uniform skeleton lands within tol of target_size.

    Skeleton size grows with epsilon (smaller street separation), so a
    bisection over (lo, hi) converges; returns the best (epsilon, size)
    seen even when the tolerance is out of reach.
    """
    if s.skeleton != "uniform":
        raise ScenarioError("epsilon tuning applies to uniform skeletons")
    best = None
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        world = build_world(replace(s, epsilon=mid, queries=0))
        size = world.skeleton.size
        if best is None or abs(size - target_size) < abs(best[1] -
                                                         target_size):
            best = (mid, size)
        if abs(size - target_size) <= tol * target_size:
            return mid, size
        if size < target_size:
            lo = mid
        else:
            hi = mid
    return best


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return _fmt(value)


def csv_text(rows: list[MetricsRecord]) -> str:
    """Render records in the documented column order (stable bytes)."""
    out = [",".join(CSV_COLUMNS)]
    for r in rows:
        out.append(",".join(_cell(getattr(r, col)) for col in CSV_COLUMNS))
    return "\n".join(out) + "\n"


def emit_csv(rows: list[MetricsRecord], path) -> None:
    if not rows:
        raise ValueError("no records to write")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(csv_text(rows))
