"""Navigation for dense sensor fields via sparse awake skeleton subgraphs."""

from .field import (
    CommGraph,
    NodeId,
    SensorField,
    build_comm_graph,
    generate_field,
    nearest_node,
)
from .danger import (
    DangerZone,
    PotentialModel,
    ZoneSpec,
    boundary_nodes,
    load_zone,
    node_in_zone,
    path_exposure,
    perimeter_length,
    potential_at,
    well_behaved_check,
)
from .skeleton import (
    AttachResult,
    Provenance,
    SkeletonGraph,
    attach_offstreet_endpoints,
    default_street_width,
)
from .uniform import (
    UniformStreetConfig,
    build_perimeter_streets,
    build_uniform_skeleton,
    prune_street,
)
from .adaptive import (
    Quadtree,
    RetirementResult,
    VoronoiBand,
    build_adaptive_skeleton,
    build_quadtree,
    detect_voronoi_nodes,
    embed_voronoi_streets,
    simulate_cluster_retirement,
)
from .distsim import (
    PacketKind,
    PotentialPhase,
    SimRun,
    centralized_bfs,
    centralized_min_exposure,
    extract_path,
    run_bfs_flood,
    run_min_exposure,
    run_potential_phase,
)
from .harness import (
    CSV_COLUMNS,
    InvariantViolation,
    MetricsRecord,
    Scenario,
    ScenarioError,
    World,
    auto_tune_epsilon,
    build_world,
    csv_text,
    emit_csv,
    fixture_zone,
    load_scenario,
    parse_scenario,
    run_query,
    run_scenario,
    sample_queries,
    save_scenario,
    size_census,
)

__version__ = "0.1.0"
