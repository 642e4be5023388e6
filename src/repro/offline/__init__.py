"""Offline optimisation: greedy approximation, exact solvers and bounds."""

from .dag import EMPTY_PATH, PathResult, best_path
from .flow import (
    DEFAULT_GAP_THRESHOLD,
    DEFAULT_SIZE_LIMIT,
    ExactResult,
    ShardBounds,
    exact_optimum,
    lp_flow_optimum,
    relative_gap,
    solve_exact_tier,
)
from .formulation import ArcFlowModel, ExactSolverError, build_arc_flow_model
from .greedy import GreedyResult, GreedySolver, GreedyStats, greedy_assignment
from .lagrangian import LagrangianResult, lagrangian_bound
from .tight_example import TightExample, build_tight_example

__all__ = [
    "PathResult",
    "EMPTY_PATH",
    "best_path",
    "GreedySolver",
    "GreedyResult",
    "GreedyStats",
    "greedy_assignment",
    "ArcFlowModel",
    "build_arc_flow_model",
    "LagrangianResult",
    "lagrangian_bound",
    "ExactResult",
    "ExactSolverError",
    "exact_optimum",
    "DEFAULT_SIZE_LIMIT",
    "ShardBounds",
    "DEFAULT_GAP_THRESHOLD",
    "lp_flow_optimum",
    "relative_gap",
    "solve_exact_tier",
    "TightExample",
    "build_tight_example",
]
