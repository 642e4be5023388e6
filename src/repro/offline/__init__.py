"""Offline optimisation: greedy approximation, exact solvers and bounds."""

from .dag import EMPTY_PATH, PathResult, best_path, enumerate_paths
from .exact import (
    DEFAULT_SIZE_LIMIT,
    ExactResult,
    ExactSolverError,
    brute_force_optimum,
    exact_optimum,
)
from .flow import (
    DEFAULT_GAP_THRESHOLD,
    FlowResult,
    FlowSolverError,
    ShardBounds,
    lp_flow_optimum,
    relative_gap,
    solve_exact_tier,
)
from .formulation import ArcFlowModel, build_arc_flow_model
from .greedy import GreedyResult, GreedySolver, GreedyStats, greedy_assignment
from .lagrangian import LagrangianResult, lagrangian_bound
from .relaxation import RelaxationError, RelaxationResult, lp_relaxation_bound
from .tight_example import TightExample, build_tight_example

__all__ = [
    "PathResult",
    "EMPTY_PATH",
    "best_path",
    "enumerate_paths",
    "GreedySolver",
    "GreedyResult",
    "GreedyStats",
    "greedy_assignment",
    "ArcFlowModel",
    "build_arc_flow_model",
    "RelaxationResult",
    "RelaxationError",
    "lp_relaxation_bound",
    "LagrangianResult",
    "lagrangian_bound",
    "ExactResult",
    "ExactSolverError",
    "exact_optimum",
    "brute_force_optimum",
    "DEFAULT_SIZE_LIMIT",
    "FlowResult",
    "FlowSolverError",
    "ShardBounds",
    "DEFAULT_GAP_THRESHOLD",
    "lp_flow_optimum",
    "relative_gap",
    "solve_exact_tier",
    "TightExample",
    "build_tight_example",
]
