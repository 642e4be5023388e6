"""Experiments reproducing every table and figure of the paper's evaluation."""

from .algorithms import (
    ALGORITHM_NAMES,
    GREEDY,
    MAX_MARGIN,
    NEAREST,
    AlgorithmSpec,
    run_all,
    standard_algorithms,
)
from .config import (
    DEFAULT_SCALE,
    PAPER_SCALE,
    TINY_SCALE,
    ExperimentConfig,
    ExperimentScale,
    Workload,
    build_day_trips,
    build_workload,
)
from .fig3_4 import DistributionExperimentResult, run_distribution_experiment
from .fig5 import Fig5Point, Fig5Result, run_fig5
from .fig6_9 import FIGURE_METRICS, MarketInsightResult, run_market_insight_sweep
from .ablation import (
    PartitionAblationResult,
    SurgeAblationResult,
    run_partition_ablation,
    run_surge_ablation,
)
from .runner import FullRunResult, run_everything

__all__ = [
    "ALGORITHM_NAMES",
    "GREEDY",
    "MAX_MARGIN",
    "NEAREST",
    "AlgorithmSpec",
    "standard_algorithms",
    "run_all",
    "ExperimentScale",
    "ExperimentConfig",
    "Workload",
    "build_workload",
    "build_day_trips",
    "DEFAULT_SCALE",
    "PAPER_SCALE",
    "TINY_SCALE",
    "DistributionExperimentResult",
    "run_distribution_experiment",
    "Fig5Point",
    "Fig5Result",
    "run_fig5",
    "FIGURE_METRICS",
    "MarketInsightResult",
    "run_market_insight_sweep",
    "SurgeAblationResult",
    "run_surge_ablation",
    "PartitionAblationResult",
    "run_partition_ablation",
    "FullRunResult",
    "run_everything",
]
