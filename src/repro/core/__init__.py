"""Core of the framework: objectives, solutions and their validation."""

from .objectives import Objective, consumer_surplus, total_revenue
from .solution import (
    DriverPlan,
    InfeasibleSolutionError,
    MarketSolution,
    assignment_value,
    evaluate_plans,
    path_value,
)

__all__ = [
    "Objective",
    "path_value",
    "assignment_value",
    "evaluate_plans",
    "total_revenue",
    "consumer_surplus",
    "DriverPlan",
    "MarketSolution",
    "InfeasibleSolutionError",
]
