"""Unified counters / gauges / histograms with bounded memory.

One registry, one schema: the asyncio service, the coordinator, and the
benchmarks all describe themselves through the same three instrument kinds,
and :func:`repro.obs.export.render_prometheus` turns any registry into text
exposition.  Memory is bounded by construction — counters and gauges are a
single float, and a histogram holds a fixed bucket array plus a fixed-size
reservoir sample for its percentile summary.

Instruments are the store, not a view: the dispatch service creates one
registry, registers each city's instruments once and bumps them in place,
and its ``health()`` snapshot reads the very objects ``/metrics`` renders.
The one carrier kept outside the registry is a worker pool's
``TransportStats``; :func:`bind_transport_stats` registers a *collector* (a
callback run at scrape time) that reads its monotone totals.  The binder is
duck-typed on ``snapshot()`` so this module imports no transport code.
"""

from __future__ import annotations

import random
import threading
from bisect import bisect_left
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

__all__ = [
    "Counter",
    "DEFAULT_LATENCY_BUCKETS_S",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "bind_transport_stats",
]

LabelKey = Tuple[Tuple[str, str], ...]

#: Latency buckets in seconds (5ms .. 10s), Prometheus-style upper bounds.
DEFAULT_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
)


class Counter:
    """Monotonically non-decreasing total."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def set_total(self, value: float) -> None:
        """Collector hook: adopt an externally-maintained monotone total."""
        self.value = max(self.value, float(value))


class Gauge:
    """A value that can go up and down."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Histogram:
    """Bounded latency sketch: exact buckets/count/sum/max, reservoir percentiles.

    Past :attr:`CAPACITY` samples ``observe`` replaces a random reservoir
    slot (Vitter's algorithm R, histogram-local seeded RNG, so runs are
    reproducible): percentiles are exact until the reservoir is full, then
    an unbiased estimate.  Lock-guarded, because the service observes from
    the executor threads that resolve shard appends.
    """

    __slots__ = (
        "bounds", "counts", "sum", "count", "max", "_reservoir", "_rng", "_lock"
    )

    #: Reservoir capacity; percentiles are exact below this many samples.
    CAPACITY = 4096

    def __init__(self, bounds: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        self.bounds = tuple(sorted(float(b) for b in bounds))
        self.counts = [0] * (len(self.bounds) + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0
        self.max = 0.0
        self._reservoir: List[float] = []
        self._rng = random.Random(0x5EED)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.counts[bisect_left(self.bounds, value)] += 1
            self.sum += value
            self.count += 1
            if value > self.max:
                self.max = value
            if len(self._reservoir) < self.CAPACITY:
                self._reservoir.append(value)
            else:
                slot = self._rng.randrange(self.count)
                if slot < self.CAPACITY:
                    self._reservoir[slot] = value

    def percentile_ms(self, q: float) -> Optional[float]:
        """The ``q``-th percentile in milliseconds (``None`` when empty)."""
        if not self._reservoir:
            return None
        return float(np.percentile(np.asarray(self._reservoir), q)) * 1000.0

    def summary(self) -> Dict[str, Optional[float]]:
        """``{count, p50_ms, p99_ms, mean_ms, max_ms}`` for reports/health."""
        if self.count == 0:
            return {"count": 0, "p50_ms": None, "p99_ms": None, "mean_ms": None, "max_ms": None}
        return {
            "count": int(self.count),
            "p50_ms": self.percentile_ms(50),
            "p99_ms": self.percentile_ms(99),
            "mean_ms": (self.sum / self.count) * 1000.0,
            "max_ms": self.max * 1000.0,
        }


class _Family:
    __slots__ = ("kind", "help", "bounds", "metrics")

    def __init__(self, kind: str, help_text: str, bounds: Optional[Tuple[float, ...]]):
        self.kind = kind
        self.help = help_text
        self.bounds = bounds
        self.metrics: Dict[LabelKey, object] = {}


def _label_key(labels: Mapping[str, object]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class MetricsRegistry:
    """Get-or-create instrument registry keyed by (name, labels); lock-guarded,
    since the service registers per-shard histograms from executor threads."""

    def __init__(self) -> None:
        self._families: Dict[str, _Family] = {}
        self._collectors: List[Callable[["MetricsRegistry"], None]] = []
        self._lock = threading.Lock()

    def _instrument(
        self,
        kind: str,
        name: str,
        help_text: str,
        labels: Mapping[str, object],
        bounds: Optional[Tuple[float, ...]] = None,
    ):
        key = _label_key(labels)
        with self._lock:
            family = self._families.get(name)
            if family is None:
                family = _Family(kind, help_text, bounds)
                self._families[name] = family
            elif family.kind != kind:
                raise ValueError(f"{name!r} already registered as {family.kind}")
            metric = family.metrics.get(key)
            if metric is None:
                if kind == "counter":
                    metric = Counter()
                elif kind == "gauge":
                    metric = Gauge()
                else:
                    metric = Histogram(family.bounds or DEFAULT_LATENCY_BUCKETS_S)
                family.metrics[key] = metric
            return metric

    def counter(self, name: str, help_text: str = "", **labels: object) -> Counter:
        return self._instrument("counter", name, help_text, labels)

    def gauge(self, name: str, help_text: str = "", **labels: object) -> Gauge:
        return self._instrument("gauge", name, help_text, labels)

    def histogram(
        self,
        name: str,
        help_text: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S,
        **labels: object,
    ) -> Histogram:
        return self._instrument("histogram", name, help_text, labels, tuple(buckets))

    def register_collector(
        self, collector: Callable[["MetricsRegistry"], None]
    ) -> None:
        """Add a scrape-time callback that refreshes instruments it owns."""
        self._collectors.append(collector)

    def collect(self) -> Dict[str, Tuple[str, str, Dict[LabelKey, object]]]:
        """Run collectors, then return ``{name: (kind, help, metrics)}``."""
        for collector in self._collectors:
            collector(self)
        with self._lock:
            return {
                name: (family.kind, family.help, dict(family.metrics))
                for name, family in sorted(self._families.items())
            }


def bind_transport_stats(
    registry: MetricsRegistry, stats: object, **labels: object
) -> None:
    """Expose a live ``TransportStats`` through the registry.

    Duck-typed on ``snapshot()``: every numeric key is a monotone total and
    becomes the counter ``repro_transport_<key>_total``; the rest (the
    transport name, the per-shard byte map) is skipped.
    """

    def collect(reg: MetricsRegistry) -> None:
        for key, value in stats.snapshot().items():  # type: ignore[attr-defined]
            if isinstance(value, (int, float)):
                reg.counter(
                    f"repro_transport_{key}_total", f"TransportStats.{key}", **labels
                ).set_total(value)

    registry.register_collector(collect)
