"""Service observability: registry schema, /metrics endpoint, health schema,
the bounded latency histogram, counter monotonicity across epochs, and the
one-store contract (health() and /metrics read the same instruments)."""

import asyncio
import json
import random
import urllib.request

import pytest

from repro.obs import render_prometheus, start_http_server
from repro.obs.registry import DEFAULT_LATENCY_BUCKETS_S, Histogram, MetricsRegistry
from repro.online.batch import BatchConfig
from repro.service import CityMetrics, DispatchService

from ..conftest import build_random_instance

CONFIG = BatchConfig(window_s=600.0)

#: Key schema pinned for downstream dashboards (don't rename silently).
HEALTH_KEYS = {"status", "ingest_queue_depth", "cities"}
SNAPSHOT_KEYS = {
    "orders", "batches", "epochs", "backpressure_events",
    "serve_rate", "dispatch_latency", "append_latency_per_shard",
}
CITY_KEYS = SNAPSHOT_KEYS | {"shard_queue_depth", "open_orders"}
SUMMARY_KEYS = {"count", "p50_ms", "p99_ms", "mean_ms", "max_ms"}


@pytest.fixture(scope="module")
def instance():
    return build_random_instance(task_count=60, driver_count=15, seed=39)


def ordered_tasks(instance):
    return sorted(instance.tasks, key=lambda t: t.publish_ts)


class TestBoundedLatencyRecorder:
    """The latency recorder is the registry :class:`Histogram`."""

    def test_exact_stats_beyond_reservoir_capacity(self):
        recorder = Histogram()
        rng = random.Random(7)
        samples = [rng.uniform(0.0, 2.0) for _ in range(Histogram.CAPACITY * 3)]
        for value in samples:
            recorder.observe(value)
        summary = recorder.summary()
        assert recorder.count == len(samples)
        assert summary["count"] == len(samples)
        assert summary["max_ms"] == pytest.approx(max(samples) * 1000.0)
        assert summary["mean_ms"] == pytest.approx(
            sum(samples) / len(samples) * 1000.0
        )

    def test_memory_is_bounded(self):
        recorder = Histogram()
        for _ in range(Histogram.CAPACITY * 3):
            recorder.observe(0.01)
        assert len(recorder._reservoir) <= Histogram.CAPACITY

    def test_bucket_counts_sum_to_exact_count(self):
        recorder = Histogram()
        rng = random.Random(11)
        for _ in range(10_000):
            recorder.observe(rng.uniform(0.0, 20.0))
        counts = recorder.counts
        assert len(counts) == len(DEFAULT_LATENCY_BUCKETS_S) + 1  # +Inf slot
        assert sum(counts) == recorder.count == 10_000

    def test_summary_keys_unchanged(self):
        recorder = Histogram()
        recorder.observe(0.05)
        assert set(recorder.summary()) == SUMMARY_KEYS

    def test_reservoir_sampling_is_deterministic(self):
        a, b = Histogram(), Histogram()
        rng = random.Random(3)
        samples = [rng.uniform(0.0, 1.0) for _ in range(20_000)]
        for value in samples:
            a.observe(value)
            b.observe(value)
        assert a.summary() == b.summary()

    def test_seeded_summary_is_pinned(self):
        """The reservoir's seed and replacement rule are part of the output:
        these are the values the seeded sequence has always summarised to."""
        recorder = Histogram()
        rng = random.Random(3)
        for _ in range(20_000):
            recorder.observe(rng.uniform(0.0, 1.0))
        assert recorder.summary() == {
            "count": 20000,
            "p50_ms": 497.6415193739179,
            "p99_ms": 992.3229221991685,
            "mean_ms": 500.60123575329527,
            "max_ms": 999.9610609740491,
        }
        assert recorder.counts == [112, 114, 310, 472, 981, 2947, 5053, 10011, 0, 0, 0, 0]
        assert recorder.sum == 10012.024715065905

    def test_percentiles_track_distribution(self):
        recorder = Histogram()
        rng = random.Random(5)
        for _ in range(50_000):
            recorder.observe(rng.uniform(0.0, 1.0))
        summary = recorder.summary()
        # Uniform(0,1): p50 ~ 500ms, p99 ~ 990ms; the reservoir is 4096
        # samples so allow a loose tolerance.
        assert summary["p50_ms"] == pytest.approx(500.0, abs=50.0)
        assert summary["p99_ms"] == pytest.approx(990.0, abs=30.0)


class TestHealthSchema:
    def test_snapshot_and_health_key_schema(self, instance):
        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                for task in ordered_tasks(instance):
                    await service.submit("porto", task)
                await service.finish()
                return service.health()

        health = asyncio.run(scenario())
        assert set(health) == HEALTH_KEYS
        assert health["status"] == "ok"
        city = health["cities"]["porto"]
        assert CITY_KEYS <= set(city)  # transport key is pool-dependent
        assert set(city["dispatch_latency"]) == SUMMARY_KEYS
        json.dumps(health)  # endpoint-serialisable

    def test_city_metrics_snapshot_schema(self):
        snapshot = CityMetrics(MetricsRegistry(), "porto").snapshot()
        assert set(snapshot) == SNAPSHOT_KEYS
        json.dumps(snapshot)


class TestServiceRegistry:
    COUNTER_NAMES = (
        "repro_orders_total", "repro_batches_total", "repro_epochs_total",
        "repro_served_total", "repro_backpressure_events_total",
    )

    def _scrape(self, registry):
        """Collect and copy counter values out (metrics are live objects)."""
        label = (("city", "porto"),)
        collected = registry.collect()
        return {name: collected[name][2][label].value for name in self.COUNTER_NAMES}

    def _run(self, instance, scrapes):
        """Run a 2-epoch soak-let, scraping after each epoch; returns the
        final rendered exposition."""

        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                registry = service.metrics_registry()
                tasks = ordered_tasks(instance)
                half = len(tasks) // 2
                for task in tasks[:half]:
                    await service.submit("porto", task)
                await service.rotate("porto")
                scrapes.append(self._scrape(registry))
                for task in tasks[half:]:
                    await service.submit("porto", task)
                await service.finish()
                scrapes.append(self._scrape(registry))
                return render_prometheus(registry)

        return asyncio.run(scenario())

    def test_counters_monotone_across_epochs(self, instance):
        scrapes = []
        self._run(instance, scrapes)
        first, second = scrapes
        for name in self.COUNTER_NAMES:
            assert second[name] >= first[name], name
        assert second["repro_orders_total"] == len(instance.tasks)
        assert second["repro_epochs_total"] == 2

    def test_exposition_parses_and_histograms_are_consistent(self, instance):
        text = self._run(instance, [])
        families = {}
        for line in text.splitlines():
            if line.startswith("#"):
                parts = line.split()
                assert parts[1] in ("HELP", "TYPE")
                continue
            name_part, value = line.rsplit(" ", 1)
            float(value)  # every sample value parses
            families.setdefault(name_part.split("{")[0], []).append(float(value))
        # histogram: +Inf bucket == _count for the dispatch latency family
        buckets = families["repro_dispatch_latency_seconds_bucket"]
        count = families["repro_dispatch_latency_seconds_count"][0]
        assert buckets == sorted(buckets)
        assert buckets[-1] == count
        assert count > 0


class TestMetricsEndpoint:
    def test_scrape_live_service(self, instance):
        def fetch(port, path):
            with urllib.request.urlopen(
                f"http://127.0.0.1:{port}{path}", timeout=5
            ) as response:
                return response.status, response.read()

        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                registry = service.metrics_registry()
                server = await start_http_server(
                    lambda: registry, health_fn=service.health, port=0
                )
                port = server.sockets[0].getsockname()[1]
                loop = asyncio.get_running_loop()
                try:
                    for task in ordered_tasks(instance):
                        await service.submit("porto", task)
                    await service.finish()
                    status, body = await loop.run_in_executor(
                        None, fetch, port, "/metrics"
                    )
                    health_status, health_body = await loop.run_in_executor(
                        None, fetch, port, "/health"
                    )
                finally:
                    server.close()
                    await server.wait_closed()
                return status, body, health_status, health_body

        status, body, health_status, health_body = asyncio.run(scenario())
        assert status == 200
        text = body.decode("utf-8")
        assert 'repro_orders_total{city="porto"}' in text
        assert "repro_dispatch_latency_seconds_bucket" in text
        assert health_status == 200
        payload = json.loads(health_body)
        assert payload["status"] == "ok"
        assert "porto" in payload["cities"]


def scrape_counters(registry):
    """``{(name, labels): value}`` for every counter in one scrape."""
    return {
        (name, labels): metric.value
        for name, (kind, _help, metrics) in registry.collect().items()
        if kind == "counter"
        for labels, metric in metrics.items()
    }


class TestOneMetricsSystem:
    """health() and /metrics read the same instruments in one live registry."""

    def test_every_counter_equals_its_health_key(self, instance):
        async def scenario():
            async with DispatchService() as service:
                service.register_city(
                    "porto", instance.drivers, config=CONFIG,
                    executor="process", workers=2,
                )
                tasks = ordered_tasks(instance)
                half = len(tasks) // 2
                for task in tasks[:half]:
                    await service.submit("porto", task)
                first = await service.rotate("porto")
                for task in tasks[half:]:
                    await service.submit("porto", task)
                final = (await service.finish())["porto"]
                served = first.report.served_count + final.report.served_count
                return service.health(), scrape_counters(service.metrics_registry()), served

        health, counters, served = asyncio.run(scenario())
        city = health["cities"]["porto"]
        assert city["epochs"] == 2
        assert city["transport"]["pickle_shipments"] > 0
        checked = 0
        for (name, labels), value in counters.items():
            assert dict(labels)["city"] == "porto"
            if name.startswith("repro_transport_"):
                expected = city["transport"][name[len("repro_transport_"):-len("_total")]]
            elif name == "repro_served_total":
                expected = served
            else:
                expected = city[name[len("repro_"):-len("_total")]]
            assert value == expected, name
            checked += 1
        assert checked == 5 + 10  # five city counters, ten transport totals

    def test_dispatch_histogram_count_is_the_health_count(self, instance):
        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                for task in ordered_tasks(instance):
                    await service.submit("porto", task)
                await service.finish()
                return service.health(), render_prometheus(service.metrics_registry())

        health, text = asyncio.run(scenario())
        count_line = 'repro_dispatch_latency_seconds_count{city="porto"} '
        (line,) = [row for row in text.splitlines() if row.startswith(count_line)]
        count = int(line[len(count_line):])
        assert count == health["cities"]["porto"]["dispatch_latency"]["count"] == 60

    def test_metrics_registry_is_the_live_registry(self, instance):
        async def scenario():
            async with DispatchService() as service:
                first = service.metrics_registry()
                service.register_city("porto", instance.drivers, config=CONFIG)
                return first, service.metrics_registry()

        first, again = asyncio.run(scenario())
        assert first is again

    def test_city_registered_after_first_scrape_appears(self, instance):
        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                registry = service.metrics_registry()
                before = render_prometheus(registry)
                service.register_city("lisbon", instance.drivers, config=CONFIG)
                await service.submit("lisbon", ordered_tasks(instance)[0])
                await service.finish()
                return before, render_prometheus(registry)

        before, after = asyncio.run(scenario())
        assert 'city="lisbon"' not in before
        assert 'repro_orders_total{city="lisbon"} 1' in after
        assert "repro_cities 2" in after

    def test_open_epoch_orders_do_not_dilute_serve_rate(self, instance):
        """serve_rate is finished-epoch served / finished-epoch orders:
        orders ingested into the open epoch leave it unchanged."""

        async def scenario():
            async with DispatchService() as service:
                service.register_city("porto", instance.drivers, config=CONFIG)
                registry = service.metrics_registry()
                tasks = ordered_tasks(instance)
                for task in tasks[:30]:
                    await service.submit("porto", task)
                first = await service.rotate("porto")
                before = service.health()["cities"]["porto"]
                for task in tasks[30:]:
                    await service.submit("porto", task)
                while service.health()["cities"]["porto"]["orders"] < 60:
                    await asyncio.sleep(0)
                after = service.health()["cities"]["porto"]
                gauge = registry.collect()["repro_serve_rate"][2][(("city", "porto"),)]
                return first, before, after, gauge.value

        first, before, after, gauge = asyncio.run(scenario())
        expected = first.report.served_count / 30
        assert first.report.served_count > 0
        assert before["serve_rate"] == expected
        assert after["epochs"] == 1
        assert after["serve_rate"] == expected
        assert gauge == expected
