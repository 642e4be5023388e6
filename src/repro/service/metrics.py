"""Service metrics: latency distributions and per-city counters.

The soak benchmark's headline numbers (p50/p99 end-to-end dispatch latency)
and the gateway's health endpoint both read from here.  Memory is bounded by
construction: a :class:`LatencyRecorder` keeps an exact running count, sum
and max (and fixed Prometheus-style bucket counts for
:func:`repro.obs.registry.bind_city_metrics`), plus a fixed-size reservoir
sample for on-demand percentiles — so a week-long ``repro serve`` holds a
few kilobytes per recorder instead of one float per order forever.
Percentiles are exact until the reservoir capacity (4096 samples) is
exceeded, then an unbiased uniform-sample estimate; count/mean/max stay
exact at any scale.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

#: Fixed histogram upper bounds in seconds (5ms .. 10s) shared with the
#: Prometheus exposition of dispatch/append latency.
BUCKET_BOUNDS_S: Tuple[float, ...] = (
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


class LatencyRecorder:
    """Bounded latency sketch: exact count/sum/max, reservoir percentiles.

    ``record`` is O(1): it bumps the exact running stats, the fixed bucket
    counts, and (past capacity) replaces a random reservoir slot — Vitter's
    algorithm R with a recorder-local seeded RNG, so runs are reproducible.
    """

    __slots__ = ("_reservoir", "_count", "_sum", "_max", "_buckets", "_rng")

    #: Reservoir capacity; percentiles are exact below this many samples.
    CAPACITY = 4096

    #: Bucket upper bounds (seconds) exposed to the metrics registry.
    BUCKET_BOUNDS_S = BUCKET_BOUNDS_S

    def __init__(self) -> None:
        self._reservoir: List[float] = []
        self._count = 0
        self._sum = 0.0
        self._max = 0.0
        self._buckets = [0] * (len(BUCKET_BOUNDS_S) + 1)  # last slot is +Inf
        self._rng = random.Random(0x5EED)

    def record(self, seconds: float) -> None:
        value = float(seconds)
        self._count += 1
        self._sum += value
        if value > self._max:
            self._max = value
        self._buckets[bisect_left(BUCKET_BOUNDS_S, value)] += 1
        if len(self._reservoir) < self.CAPACITY:
            self._reservoir.append(value)
        else:
            slot = self._rng.randrange(self._count)
            if slot < self.CAPACITY:
                self._reservoir[slot] = value

    def __len__(self) -> int:
        return self._count

    @property
    def sum_seconds(self) -> float:
        """Exact sum of every recorded sample, in seconds."""
        return self._sum

    def bucket_counts(self) -> Tuple[int, ...]:
        """Exact per-bucket counts over :data:`BUCKET_BOUNDS_S` (+Inf last)."""
        return tuple(self._buckets)

    def percentile_ms(self, q: float) -> Optional[float]:
        """The ``q``-th percentile in milliseconds (``None`` when empty).

        Exact while the sample count fits the reservoir, estimated from the
        uniform reservoir sample beyond it.
        """
        if not self._reservoir:
            return None
        return float(np.percentile(np.asarray(self._reservoir), q)) * 1000.0

    def summary(self) -> Dict[str, Optional[float]]:
        """``{count, p50_ms, p99_ms, mean_ms, max_ms}`` for reports/health."""
        if self._count == 0:
            return {"count": 0, "p50_ms": None, "p99_ms": None, "mean_ms": None, "max_ms": None}
        data = np.asarray(self._reservoir)
        return {
            "count": int(self._count),
            "p50_ms": float(np.percentile(data, 50)) * 1000.0,
            "p99_ms": float(np.percentile(data, 99)) * 1000.0,
            "mean_ms": (self._sum / self._count) * 1000.0,
            "max_ms": self._max * 1000.0,
        }


@dataclass
class CityMetrics:
    """One city's live counters, read by :meth:`DispatchService.health`."""

    #: Orders accepted into the city's stream (across all epochs).
    orders: int = 0
    #: Batches shipped to the city's shard sessions.
    batches: int = 0
    #: Completed epochs (stream rotations).
    epochs: int = 0
    #: Times the gateway paused ingestion to let the shard queues drain.
    backpressure_events: int = 0
    #: Orders served / orders ingested, accumulated over finished epochs.
    served: int = 0
    #: End-to-end dispatch latency: submit -> batch fully appended.
    dispatch: LatencyRecorder = field(default_factory=LatencyRecorder)
    #: Ship -> append-complete latency per shard id.
    per_shard_append: Dict[int, LatencyRecorder] = field(default_factory=dict)

    def record_append(self, shard_id: int, seconds: float) -> None:
        recorder = self.per_shard_append.get(shard_id)
        if recorder is None:
            recorder = self.per_shard_append[shard_id] = LatencyRecorder()
        recorder.record(seconds)

    @property
    def serve_rate(self) -> Optional[float]:
        """Across finished epochs (``None`` before the first finish)."""
        if self.orders == 0 or self.epochs == 0:
            return None
        return self.served / self.orders

    def snapshot(self) -> Dict[str, object]:
        """The city's health-endpoint block (JSON-serialisable)."""
        return {
            "orders": self.orders,
            "batches": self.batches,
            "epochs": self.epochs,
            "backpressure_events": self.backpressure_events,
            "serve_rate": self.serve_rate,
            "dispatch_latency": self.dispatch.summary(),
            "append_latency_per_shard": {
                str(shard_id): recorder.summary()
                for shard_id, recorder in sorted(self.per_shard_append.items())
            },
        }
