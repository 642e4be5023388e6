"""Analysis: metrics, performance ratios, distribution summaries, reporting."""

from .driver_stats import DriverWorkload, FleetStats, fleet_stats, gini_coefficient
from .distributions import (
    DistributionSummary,
    histogram,
    summarize_samples,
    travel_distance_summary,
    travel_time_summary,
)
from .metrics import MarketMetrics, SweepSeries, series_from_metrics
from .ratio import BoundKind, PerformanceRatio, compute_upper_bound
from .reporting import format_metric_dict, format_series_table, format_table

__all__ = [
    "DriverWorkload",
    "FleetStats",
    "fleet_stats",
    "gini_coefficient",
    "MarketMetrics",
    "SweepSeries",
    "series_from_metrics",
    "BoundKind",
    "PerformanceRatio",
    "compute_upper_bound",
    "DistributionSummary",
    "summarize_samples",
    "travel_time_summary",
    "travel_distance_summary",
    "histogram",
    "format_table",
    "format_series_table",
    "format_metric_dict",
]
