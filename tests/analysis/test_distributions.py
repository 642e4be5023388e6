"""Tests for distribution summaries (Figs. 3-4 analysis)."""

import numpy as np
import pytest

from repro.analysis import (
    histogram,
    summarize_samples,
    travel_distance_summary,
    travel_time_summary,
)
from repro.trace import generate_trace


@pytest.fixture(scope="module")
def trips():
    return generate_trace(trip_count=1500, seed=51)


class TestSummaries:
    def test_travel_time_summary_fields(self, trips):
        summary = travel_time_summary(trips)
        assert summary.count == len(trips)
        assert summary.median <= summary.mean  # heavy right tail
        assert summary.median < summary.p90 < summary.p99 <= summary.maximum
        assert summary.tail_exponent > 1.0
        assert summary.heaviness > 1.0
        assert set(summary.as_dict()) >= {"mean", "median", "p99", "tail_exponent"}

    def test_travel_distance_summary_fields(self, trips):
        summary = travel_distance_summary(trips)
        assert summary.name == "travel_distance_km"
        assert summary.mean > 0.0
        assert summary.heaviness > 2.0

    def test_summarize_requires_positive_samples(self):
        with pytest.raises(ValueError):
            summarize_samples("x", [0.0, -1.0])

    def test_consistency_between_time_and_distance(self, trips):
        """Distances are durations times (roughly constant) speed, so both
        marginals must have a similar tail exponent."""
        t = travel_time_summary(trips)
        d = travel_distance_summary(trips)
        assert t.tail_exponent == pytest.approx(d.tail_exponent, rel=0.25)


class TestHistograms:
    def test_histogram_counts_sum_to_samples(self):
        samples = [1.0, 2.0, 3.0, 4.0, 5.0, 50.0]
        counts, edges = histogram(samples, bins=5)
        assert counts.sum() == len(samples)
        assert len(edges) == 6

    def test_log_bins_are_increasing(self):
        samples = list(np.random.default_rng(0).pareto(2.0, size=500) + 1.0)
        _counts, edges = histogram(samples, bins=10, log_bins=True)
        assert all(edges[i] < edges[i + 1] for i in range(len(edges) - 1))

    def test_histogram_validation(self):
        with pytest.raises(ValueError):
            histogram([], bins=5)
        with pytest.raises(ValueError):
            histogram([1.0], bins=0)
