"""Per-city service metrics, recorded straight into the service's registry.

:class:`CityMetrics` is the gateway's handle on one city's instruments in
the :class:`~repro.obs.registry.MetricsRegistry` that
:meth:`~repro.service.gateway.DispatchService.metrics_registry` serves.  The
gateway bumps them in place, and :meth:`CityMetrics.snapshot` reads the
same objects for the health endpoint — every number has one store, and
nothing is copied at scrape time.  Latencies are
:class:`~repro.obs.registry.Histogram` s: exact count/sum/max and bucket
counts plus a fixed-size reservoir for percentiles, so a week-long
``repro serve`` holds a few kilobytes per histogram.
"""

from __future__ import annotations

import math
from typing import Dict

from ..obs.registry import Histogram, MetricsRegistry


class CityMetrics:
    """One city's registered instruments and its health-endpoint block.

    The serve rate counts finished epochs only: ``served`` over the orders
    of the epochs that produced it, so orders ingested into the open epoch
    never dilute it.
    """

    def __init__(self, registry: MetricsRegistry, city: str) -> None:
        self._registry = registry
        self._city = city
        #: Orders accepted into the city's stream (across all epochs).
        self.orders = registry.counter(
            "repro_orders_total", "Orders accepted by the gateway", city=city
        )
        #: Batches shipped to the city's shard sessions.
        self.batches = registry.counter(
            "repro_batches_total", "Publish-ordered batches shipped", city=city
        )
        #: Completed epochs (stream rotations).
        self.epochs = registry.counter(
            "repro_epochs_total", "Stream epochs rotated", city=city
        )
        #: Times the gateway paused ingestion to let the shard queues drain.
        self.backpressure_events = registry.counter(
            "repro_backpressure_events_total",
            "Times ingest waited on a deep shard queue",
            city=city,
        )
        #: Orders served, accumulated over finished epochs.
        self.served = registry.counter(
            "repro_served_total", "Orders served across finished epochs", city=city
        )
        #: served / orders over finished epochs (NaN before the first finish).
        self.serve_rate = registry.gauge(
            "repro_serve_rate", "served / orders over finished epochs", city=city
        )
        self.serve_rate.set(math.nan)
        self._finished_orders = 0
        #: End-to-end dispatch latency: submit -> batch fully appended.
        self.dispatch = registry.histogram(
            "repro_dispatch_latency_seconds",
            "Order submit -> dispatch decision latency",
            city=city,
        )
        #: Ship -> append-complete latency per shard id (registered lazily).
        self.per_shard_append: Dict[int, Histogram] = {}

    def record_append(self, shard_id: int, seconds: float) -> None:
        histogram = self.per_shard_append.get(shard_id)
        if histogram is None:
            histogram = self.per_shard_append[shard_id] = self._registry.histogram(
                "repro_append_latency_seconds",
                "Batch append round-trip per shard",
                city=self._city,
                shard=shard_id,
            )
        histogram.observe(seconds)

    def finish_epoch(self, served: int, orders: int) -> None:
        """Count one finished epoch that served ``served`` of its ``orders``."""
        self.epochs.inc()
        self.served.inc(served)
        self._finished_orders += orders
        if self._finished_orders:
            self.serve_rate.set(self.served.value / self._finished_orders)

    def snapshot(self) -> Dict[str, object]:
        """The city's health-endpoint block (JSON-serialisable)."""
        serve_rate = self.serve_rate.value
        return {
            "orders": int(self.orders.value),
            "batches": int(self.batches.value),
            "epochs": int(self.epochs.value),
            "backpressure_events": int(self.backpressure_events.value),
            "serve_rate": None if math.isnan(serve_rate) else serve_rate,
            "dispatch_latency": self.dispatch.summary(),
            "append_latency_per_shard": {
                str(shard_id): histogram.summary()
                for shard_id, histogram in sorted(self.per_shard_append.items())
            },
        }
