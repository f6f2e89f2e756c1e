"""padspan: LOCAL-model simulation and solving of distance-bounded network
design, with padded decompositions and local spanner rounding."""

from .cp import (
    CpInstance,
    Demand,
    Objective,
    build_dsn_instance,
    build_spanner_instance,
    combiner_value,
    enumerate_paths,
    evaluate_objective,
    linear_sum,
    max_degree,
    p_norm,
    read_instance,
    write_instance,
)
from .decomposition import (
    Clustering,
    PaddedParams,
    sample_decomposition_centralized,
    sample_decomposition_distributed,
    sample_radius,
    validate_clustering,
)
from .distributed import (
    ConcentrationReport,
    DistributedRun,
    IterationRecord,
    SolverConfig,
    concentration_report,
    implied_flow,
    round_bound,
    solve_distributed,
)
from .graphs import (
    Graph,
    arborescences,
    ball,
    read_graph,
    restrict,
    write_graph,
)
from .harness import ExperimentConfig, RunReport, generate_instance, run_experiment
from .localsim import (
    NodeStep,
    ProtocolError,
    ProtocolTimeout,
    RoundTranscript,
    rng_stream,
    rng_uniforms,
    run_protocol,
)
from .lp import (
    CpSolution,
    LpProblem,
    check_feasibility,
    dump_lp,
    solve_cluster_cp,
    solve_global_oracle,
    solve_lp,
)
from .rounding import (
    SpannerOutput,
    classify_edges,
    round_low_degree,
    round_spanner,
    round_spanner_distributed,
    verify_stretch,
)

__version__ = "0.1.0"

__all__ = [
    "Clustering", "ConcentrationReport", "CpInstance", "CpSolution", "Demand", "DistributedRun", "ExperimentConfig", "Graph",
    "IterationRecord", "LpProblem", "NodeStep", "Objective", "PaddedParams",
    "ProtocolError", "ProtocolTimeout", "RoundTranscript", "RunReport",
    "SolverConfig", "SpannerOutput", "arborescences", "ball",
    "build_dsn_instance", "build_spanner_instance", "check_feasibility",
    "classify_edges", "combiner_value", "concentration_report", "dump_lp",
    "enumerate_paths", "evaluate_objective", "generate_instance",
    "implied_flow", "linear_sum", "max_degree", "p_norm", "read_graph",
    "read_instance", "restrict", "rng_stream", "rng_uniforms", "round_bound",
    "round_low_degree", "round_spanner", "round_spanner_distributed",
    "run_experiment", "run_protocol", "sample_decomposition_centralized",
    "sample_decomposition_distributed", "sample_radius", "solve_cluster_cp",
    "solve_distributed", "solve_global_oracle", "solve_lp",
    "validate_clustering", "verify_stretch", "write_graph", "write_instance",
]
