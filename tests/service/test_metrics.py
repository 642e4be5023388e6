"""Latency histograms and per-city counters."""

import json

from repro.obs.registry import Histogram, MetricsRegistry
from repro.service import CityMetrics


def city_metrics():
    return CityMetrics(MetricsRegistry(), "porto")


class TestLatencyRecorder:
    """The service's latency recorder is the registry :class:`Histogram`."""

    def test_empty_summary_is_all_none(self):
        summary = Histogram().summary()
        assert summary["count"] == 0
        assert summary["p50_ms"] is None
        assert summary["p99_ms"] is None

    def test_percentiles_in_milliseconds(self):
        recorder = Histogram()
        for value in (0.010, 0.020, 0.030, 0.040, 0.100):
            recorder.observe(value)
        assert recorder.count == 5
        summary = recorder.summary()
        assert summary["count"] == 5
        assert summary["p50_ms"] == 30.0
        assert summary["max_ms"] == 100.0
        assert summary["p50_ms"] <= summary["p99_ms"] <= summary["max_ms"]
        assert recorder.percentile_ms(50) == 30.0

    def test_summary_is_json_serialisable(self):
        recorder = Histogram()
        recorder.observe(0.5)
        json.dumps(recorder.summary())  # numpy floats must not leak through


class TestCityMetrics:
    def test_serve_rate_needs_a_finished_epoch(self):
        metrics = city_metrics()
        assert metrics.snapshot()["serve_rate"] is None
        metrics.orders.inc(100)
        assert metrics.snapshot()["serve_rate"] is None  # no epoch finished yet
        metrics.finish_epoch(served=40, orders=100)
        assert metrics.snapshot()["serve_rate"] == 0.4

    def test_per_shard_append_recorders_are_lazy(self):
        metrics = city_metrics()
        metrics.record_append(3, 0.002)
        metrics.record_append(3, 0.004)
        metrics.record_append(0, 0.001)
        assert set(metrics.per_shard_append) == {0, 3}
        assert metrics.per_shard_append[3].count == 2

    def test_snapshot_is_json_serialisable(self):
        metrics = city_metrics()
        metrics.orders.inc(7)
        metrics.dispatch.observe(0.25)
        metrics.record_append(1, 0.01)
        block = json.loads(json.dumps(metrics.snapshot()))
        assert block["orders"] == 7
        assert block["dispatch_latency"]["count"] == 1
        assert "1" in block["append_latency_per_shard"]
