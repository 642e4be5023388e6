"""Registry semantics, the service's own registry, and the transport view."""

import math
import sys
import threading

import pytest

from repro.distributed.transport import TransportStats
from repro.obs.registry import (
    DEFAULT_LATENCY_BUCKETS_S,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    bind_transport_stats,
)
from repro.service import DispatchService

from ..conftest import build_random_instance


class TestInstruments:
    def test_counter_is_monotone(self):
        counter = Counter()
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_counter_set_total_never_regresses(self):
        counter = Counter()
        counter.set_total(10)
        counter.set_total(4)  # a collector view must not go backwards
        assert counter.value == 10

    def test_gauge_moves_both_ways(self):
        gauge = Gauge()
        gauge.set(5)
        gauge.inc(-2)
        assert gauge.value == 3

    def test_histogram_buckets_and_totals(self):
        hist = Histogram(bounds=(1.0, 2.0))
        for value in (0.5, 1.5, 1.5, 99.0):
            hist.observe(value)
        assert hist.counts == [1, 2, 1]
        assert hist.count == 4
        assert hist.sum == pytest.approx(102.5)
        assert sum(hist.counts) == hist.count

    def test_concurrent_observe_and_registration_lose_nothing(self):
        """Executor threads observe one shared histogram and lazily register
        their own: no observation and no instrument may be lost."""
        registry = MetricsRegistry()
        workers, per_worker = 8, 10_000

        def work(index):
            shared = registry.histogram("repro_shared_seconds")
            own = registry.histogram("repro_lazy_seconds", shard=index)
            for _ in range(per_worker):
                shared.observe(0.01)
                own.observe(0.01)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,)) for i in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
        finally:
            sys.setswitchinterval(previous)
        collected = registry.collect()
        (shared,) = collected["repro_shared_seconds"][2].values()
        assert shared.count == sum(shared.counts) == workers * per_worker
        assert len(collected["repro_lazy_seconds"][2]) == workers


class TestRegistry:
    def test_get_or_create_by_name_and_labels(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_x_total", "help", city="a")
        again = registry.counter("repro_x_total", city="a")
        other = registry.counter("repro_x_total", city="b")
        assert a is again
        assert a is not other

    def test_kind_conflicts_are_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_x_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_x_total")

    def test_collect_runs_collectors_and_sorts(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("repro_b")
        registry.counter("repro_a_total")
        registry.register_collector(lambda reg: gauge.set(7))
        collected = registry.collect()
        assert list(collected) == ["repro_a_total", "repro_b"]
        kind, _help, metrics = collected["repro_b"]
        assert kind == "gauge"
        (metric,) = metrics.values()
        assert metric.value == 7


@pytest.fixture()
def service():
    """A registered (not started) service; its city metrics live in the
    service's own registry."""
    service = DispatchService()
    service.register_city("porto", build_random_instance(task_count=4).drivers)
    yield service
    service.shutdown()


class TestCityMetricsView:
    def _metrics(self, service):
        metrics = service.runtimes()["porto"].metrics
        metrics.orders.inc(10)
        metrics.batches.inc(3)
        metrics.finish_epoch(served=6, orders=10)
        metrics.dispatch.observe(0.02)
        metrics.dispatch.observe(0.2)
        metrics.record_append(2, 0.05)
        return metrics

    def test_snapshot_values_reach_the_registry(self, service):
        self._metrics(service)
        collected = service.metrics_registry().collect()
        label = (("city", "porto"),)
        assert collected["repro_orders_total"][2][label].value == 10
        assert collected["repro_served_total"][2][label].value == 6
        assert collected["repro_serve_rate"][2][label].value == pytest.approx(0.6)
        dispatch = collected["repro_dispatch_latency_seconds"][2][label]
        assert dispatch.count == 2
        assert dispatch.sum == pytest.approx(0.22)
        assert sum(dispatch.counts) == dispatch.count

    def test_per_shard_append_histograms_get_shard_label(self, service):
        self._metrics(service)
        metrics = service.metrics_registry().collect()["repro_append_latency_seconds"][2]
        assert (("city", "porto"), ("shard", "2")) in metrics

    def test_serve_rate_without_finished_epochs_is_nan(self, service):
        metrics = service.runtimes()["porto"].metrics
        metrics.orders.inc(5)  # no epochs finished yet -> serve_rate is None
        assert metrics.snapshot()["serve_rate"] is None
        collected = service.metrics_registry().collect()
        assert math.isnan(collected["repro_serve_rate"][2][(("city", "porto"),)].value)

    def test_counters_monotone_across_scrapes(self, service):
        metrics = self._metrics(service)
        registry = service.metrics_registry()
        label = (("city", "porto"),)
        first = registry.collect()["repro_orders_total"][2][label].value
        metrics.orders.inc(7)
        metrics.finish_epoch(served=0, orders=7)
        second = registry.collect()["repro_orders_total"][2][label].value
        assert second == first + 7


class TestTransportStatsView:
    def test_snapshot_keys_become_counters_and_gauges(self):
        stats = TransportStats(transport="shm")
        stats.record_shm(1, shm_bytes=1000, descriptor_bytes=64)
        stats.record_pickle(2, wire_bytes=500, fallback=True)
        registry = MetricsRegistry()
        bind_transport_stats(registry, stats, city="porto")
        collected = registry.collect()
        label = (("city", "porto"),)
        assert collected["repro_transport_shm_bytes_total"][2][label].value == 1000
        assert collected["repro_transport_pickle_fallbacks_total"][2][label].value == 1
        # bytes_over_pipe = descriptor + pickle bytes
        assert (
            collected["repro_transport_bytes_over_pipe_total"][2][label].value == 564
        )
        # shipment counts are monotone totals too
        assert collected["repro_transport_shm_shipments_total"][0] == "counter"

    def test_non_numeric_snapshot_keys_are_skipped(self):
        registry = MetricsRegistry()
        bind_transport_stats(registry, TransportStats(), kind="t")
        names = set(registry.collect())
        assert not any("transport_transport" in name for name in names)
        assert not any("shard_bytes" in name for name in names)


def test_default_buckets_are_sorted_and_span_expected_range():
    assert list(DEFAULT_LATENCY_BUCKETS_S) == sorted(DEFAULT_LATENCY_BUCKETS_S)
    assert DEFAULT_LATENCY_BUCKETS_S[0] == 0.005
    assert DEFAULT_LATENCY_BUCKETS_S[-1] == 10.0
