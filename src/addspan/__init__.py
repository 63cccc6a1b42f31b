"""Additive 2- and 6-spanners of unweighted undirected graphs via
shortest-path completion, with brute-force verification and per-step
potential diagnostics."""

from .graph import (
    UNREACHABLE,
    DistanceMatrix,
    Graph,
    GraphFormatError,
    NoPathError,
    Path,
    apsp,
    gen_gnp,
    gen_named,
    parse_edge_list,
    read_edge_list,
    serialize_edge_list,
    shortest_path,
)
from .engine import (
    CompletionStep,
    CompletionTrace,
    SubgraphState,
    build_spanner,
    complete,
    cost_degsq,
    cost_edges,
    default_cap,
    seed_degree_capped,
)
from .diagnostics import (
    TraceContractError,
    Violation,
    check_2spanner_step_law,
    check_cauchy_bound,
    measure_6spanner_step_ratio,
    verify_spanner,
)
from .sweep import ExponentFit, SweepRecord, fit_exponent, run_sweep

__all__ = [
    "UNREACHABLE",
    "DistanceMatrix",
    "Graph",
    "GraphFormatError",
    "NoPathError",
    "Path",
    "apsp",
    "gen_gnp",
    "gen_named",
    "parse_edge_list",
    "read_edge_list",
    "serialize_edge_list",
    "shortest_path",
    "CompletionStep",
    "CompletionTrace",
    "SubgraphState",
    "build_spanner",
    "complete",
    "cost_degsq",
    "cost_edges",
    "default_cap",
    "seed_degree_capped",
    "TraceContractError",
    "Violation",
    "check_2spanner_step_law",
    "check_cauchy_bound",
    "measure_6spanner_step_ratio",
    "verify_spanner",
    "ExponentFit",
    "SweepRecord",
    "fit_exponent",
    "run_sweep",
]
