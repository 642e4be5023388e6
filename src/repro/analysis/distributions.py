"""Empirical distribution analysis for the trace (Figs. 3 and 4).

The paper plots the travel-time and travel-distance distributions of the
Porto trace and observes that both "exhibit the shape following the power law
distribution".  This module produces the histograms / survival functions
behind those figures and quantifies the heavy-tailedness so that the Fig. 3/4
benchmarks can assert on the *shape* rather than eyeball a plot.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

import numpy as np

from ..trace.powerlaw import fit_power_law_mle, tail_heaviness
from ..trace.records import TripRecord


@dataclass(frozen=True)
class DistributionSummary:
    """Summary of one empirical marginal (durations or distances)."""

    name: str
    count: int
    mean: float
    median: float
    p90: float
    p99: float
    maximum: float
    #: MLE power-law exponent of the upper tail.
    tail_exponent: float
    #: p99 / median — a scale-free heaviness score.
    heaviness: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "median": self.median,
            "p90": self.p90,
            "p99": self.p99,
            "max": self.maximum,
            "tail_exponent": self.tail_exponent,
            "heaviness": self.heaviness,
        }


def summarize_samples(name: str, samples: Sequence[float], tail_quantile: float = 0.5) -> DistributionSummary:
    """Summarise a collection of positive samples.

    ``tail_quantile`` sets where the power-law tail fit starts (the paper's
    figures are dominated by the upper tail, and fitting from the median is
    the conventional robust choice).
    """
    values = np.asarray([s for s in samples if s > 0], dtype=float)
    if values.size == 0:
        raise ValueError(f"{name}: no positive samples")
    x_min = float(np.quantile(values, tail_quantile))
    fit = fit_power_law_mle(values, x_min=x_min)
    return DistributionSummary(
        name=name,
        count=int(values.size),
        mean=float(values.mean()),
        median=float(np.median(values)),
        p90=float(np.percentile(values, 90)),
        p99=float(np.percentile(values, 99)),
        maximum=float(values.max()),
        tail_exponent=fit.alpha,
        heaviness=tail_heaviness(values),
    )


def travel_time_summary(trips: Sequence[TripRecord]) -> DistributionSummary:
    """Fig. 3 — the trip-duration (minutes) distribution."""
    return summarize_samples("travel_time_min", [t.duration_min for t in trips])


def travel_distance_summary(trips: Sequence[TripRecord]) -> DistributionSummary:
    """Fig. 4 — the trip-distance (km) distribution."""
    return summarize_samples("travel_distance_km", [t.distance_km for t in trips])


def histogram(
    samples: Sequence[float], bins: int = 30, log_bins: bool = False
) -> Tuple[np.ndarray, np.ndarray]:
    """Histogram counts and bin edges (optionally logarithmic bins), the raw
    material of the Fig. 3/4 bar plots."""
    values = np.asarray([s for s in samples if s > 0], dtype=float)
    if values.size == 0:
        raise ValueError("no positive samples")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    if log_bins:
        edges = np.logspace(np.log10(values.min()), np.log10(values.max()), bins + 1)
    else:
        edges = np.linspace(values.min(), values.max(), bins + 1)
    counts, edges = np.histogram(values, bins=edges)
    return counts, edges
