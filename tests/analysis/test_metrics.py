"""Tests for the analysis metrics and sweep series helpers."""

import pytest

from repro.analysis import MarketMetrics, SweepSeries, series_from_metrics
from repro.offline import greedy_assignment

from ..conftest import build_chain_instance


def metric(algorithm, drivers, revenue, rate):
    return MarketMetrics(
        algorithm=algorithm,
        driver_count=drivers,
        task_count=100,
        total_value=revenue * 0.8,
        total_revenue=revenue,
        served_count=int(rate * 100),
        serve_rate=rate,
        revenue_per_driver=revenue / drivers,
        tasks_per_driver=rate * 100 / drivers,
    )


class TestMarketMetrics:
    def test_from_solution(self):
        instance = build_chain_instance()
        solution = greedy_assignment(instance)
        metrics = MarketMetrics.from_solution("Greedy", 2, 2, solution)
        assert metrics.algorithm == "Greedy"
        assert metrics.total_value == pytest.approx(solution.total_value)
        assert metrics.serve_rate == pytest.approx(solution.serve_rate)
        assert metrics.as_dict()["revenue_per_driver"] == pytest.approx(
            solution.revenue_per_driver()
        )

    def test_as_dict_round_trip(self):
        m = metric("Greedy", 10, 100.0, 0.5)
        record = m.as_dict()
        assert record["algorithm"] == "Greedy"
        assert record["driver_count"] == 10
        assert record["serve_rate"] == 0.5


class TestSweepSeries:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            SweepSeries("Greedy", "serve_rate", (10, 20), (0.5,))

    def test_trend(self):
        rising = SweepSeries("a", "m", (1, 2, 3), (1.0, 2.0, 3.0))
        falling = SweepSeries("a", "m", (1, 2, 3), (3.0, 2.0, 1.0))
        assert rising.trend() > 0
        assert falling.trend() < 0

    def test_series_from_metrics_sorts_by_driver_count(self):
        rows = [
            metric("Greedy", 30, 300.0, 0.7),
            metric("Greedy", 10, 100.0, 0.4),
            metric("Nearest", 10, 90.0, 0.3),
            metric("Greedy", 20, 200.0, 0.6),
        ]
        series = series_from_metrics(rows, "Greedy", "total_revenue")
        assert series.driver_counts == (10, 20, 30)
        assert series.values == (100.0, 200.0, 300.0)

    def test_series_unknown_algorithm_or_metric(self):
        rows = [metric("Greedy", 10, 100.0, 0.4)]
        with pytest.raises(ValueError):
            series_from_metrics(rows, "Unknown", "total_revenue")
        with pytest.raises(KeyError):
            series_from_metrics(rows, "Greedy", "nonexistent")
