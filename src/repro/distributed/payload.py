"""Array-backed shard payloads for the process-pool executor.

A :class:`~repro.distributed.partition.MarketShard` carries a full
:class:`~repro.market.instance.MarketInstance` object graph — drivers, tasks
and (possibly) the lazily cached task network and per-driver task maps.
Pickling that graph into a worker process would ship megabytes of derived
state the worker is going to rebuild anyway, so the process executor ships a
:class:`ShardPayload` instead: the *primal* inputs of the shard flattened
into a handful of NumPy arrays plus the (tiny) cost-model configuration.

The round trip is exact: coordinates, timestamps and prices are stored as
``float64`` (the same representation the entities hold), so the instance a
worker rebuilds with :func:`instance_from_payload` is value-identical to the
shard's own sub-instance and every deterministic solver produces bit-identical
results on either side of the pickle boundary.

Parity contracts
----------------

* **Primal inputs only.**  Payloads carry driver/task coordinates, windows,
  deadlines and prices plus the cost-model configuration — never object
  graphs, task networks or per-driver task maps.  Workers rebuild all
  derived state themselves, so the wire format can never smuggle stale
  caches across the process boundary.
* **Bit-identical round trip.**  ``instance_from_payload(payload_from_shard(s))``
  is value-identical to ``s.instance``, and merged coordinator solutions are
  bit-identical across the serial and process executors.
* **Deltas == full rebuild.**  For the streaming path, a
  :class:`ShardPayloadDelta` ships *only the new task columns* of one arrival
  batch.  Reconstructing the batches of a stream with
  :func:`tasks_from_delta` and appending them in order yields exactly the
  task tuple a full :class:`ShardPayload` rebuild would produce (pinned by a
  hypothesis test in ``tests/distributed/test_payload.py``), which is what
  keeps the pooled stream==replay merge bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..market.cost import MarketCostModel
from ..market.driver import Driver
from ..market.instance import MarketInstance
from ..market.task import Task
from ..geo import GeoPoint
from .partition import MarketShard


def _coerce_arrays(obj, fields: Tuple[str, ...]) -> None:
    """Normalise a payload's array fields to C-contiguous ``float64`` in place.

    The transport layer (pickle and shared-memory alike) assumes it can ship
    each column as one flat buffer of known dtype; a transposed view or a
    ``float32`` array sneaking in would either silently copy at ship time or
    corrupt the fixed wire layout.  Coercing once, at construction, makes the
    invariant structural — and is free in the common case, because
    ``np.ascontiguousarray`` returns the input unchanged when it already
    complies (which also keeps the shm receive path zero-copy)."""
    for name in fields:
        value = getattr(obj, name)
        object.__setattr__(obj, name, np.ascontiguousarray(value, dtype=np.float64))


@dataclass(frozen=True)
class ShardPayload:
    """One shard's primal inputs, flattened for cheap pickling.

    ``driver_coords`` holds ``(src_lat, src_lon, dst_lat, dst_lon)`` per
    driver; ``task_coords`` the same per task.  ``task_times`` holds
    ``(publish_ts, start_deadline_ts, end_deadline_ts)``.  Optional task
    fields (willingness to pay, recorded trip distance) use ``NaN`` as the
    "not supplied" sentinel, which is unambiguous because both are validated
    non-negative on construction.
    """

    shard_id: int
    driver_ids: Tuple[str, ...]
    driver_coords: np.ndarray  # (N, 4)
    driver_windows: np.ndarray  # (N, 2): start_ts, end_ts
    task_ids: Tuple[str, ...]
    task_coords: np.ndarray  # (M, 4)
    task_times: np.ndarray  # (M, 3): publish, start deadline, end deadline
    task_prices: np.ndarray  # (M,)
    task_wtps: np.ndarray  # (M,), NaN where the task had no WTP
    task_distances: np.ndarray  # (M,), NaN where no trace distance was known
    cost_model: MarketCostModel

    #: Array fields, in wire order (shared with the shm transport layout).
    ARRAY_FIELDS = (
        "driver_coords",
        "driver_windows",
        "task_coords",
        "task_times",
        "task_prices",
        "task_wtps",
        "task_distances",
    )

    def __post_init__(self) -> None:
        _coerce_arrays(self, self.ARRAY_FIELDS)

    @property
    def driver_count(self) -> int:
        return len(self.driver_ids)

    @property
    def task_count(self) -> int:
        return len(self.task_ids)


def _flatten_tasks(tasks: Sequence[Task]) -> Tuple[np.ndarray, ...]:
    """Flatten tasks into the ``(coords, times, prices, wtps, distances)``
    arrays shared by :class:`ShardPayload` and :class:`ShardPayloadDelta`."""
    m = len(tasks)
    task_coords = np.empty((m, 4), dtype=float)
    task_times = np.empty((m, 3), dtype=float)
    task_prices = np.empty(m, dtype=float)
    task_wtps = np.full(m, np.nan, dtype=float)
    task_distances = np.full(m, np.nan, dtype=float)
    for j, task in enumerate(tasks):
        task_coords[j] = (
            task.source.lat,
            task.source.lon,
            task.destination.lat,
            task.destination.lon,
        )
        task_times[j] = (task.publish_ts, task.start_deadline_ts, task.end_deadline_ts)
        task_prices[j] = task.price
        if task.wtp is not None:
            task_wtps[j] = task.wtp
        if task.distance_km is not None:
            task_distances[j] = task.distance_km
    return task_coords, task_times, task_prices, task_wtps, task_distances


def _rebuild_tasks(
    task_ids: Tuple[str, ...],
    task_coords: np.ndarray,
    task_times: np.ndarray,
    task_prices: np.ndarray,
    task_wtps: np.ndarray,
    task_distances: np.ndarray,
) -> Tuple[Task, ...]:
    """The exact inverse of :func:`_flatten_tasks` (value-identical tasks)."""
    return tuple(
        Task(
            task_id=task_id,
            publish_ts=float(times[0]),
            source=GeoPoint(float(coords[0]), float(coords[1])),
            destination=GeoPoint(float(coords[2]), float(coords[3])),
            start_deadline_ts=float(times[1]),
            end_deadline_ts=float(times[2]),
            price=float(price),
            wtp=None if np.isnan(wtp) else float(wtp),
            distance_km=None if np.isnan(distance) else float(distance),
        )
        for task_id, coords, times, price, wtp, distance in zip(
            task_ids, task_coords, task_times, task_prices, task_wtps, task_distances
        )
    )


@dataclass(frozen=True)
class ShardPayloadDelta:
    """One arrival batch's *new task columns*, flattened for cheap pickling.

    The streaming coordinator ships one delta per (shard, batch) instead of
    re-sending the shard's whole payload: only the new tasks cross the
    process boundary, so the per-batch wire cost is ``O(B)`` regardless of
    how many tasks the shard has accumulated.  Field conventions are
    identical to :class:`ShardPayload` (``NaN`` sentinels for optional
    fields), and :func:`tasks_from_delta` restores value-identical tasks.
    """

    shard_id: int
    task_ids: Tuple[str, ...]
    task_coords: np.ndarray  # (B, 4)
    task_times: np.ndarray  # (B, 3): publish, start deadline, end deadline
    task_prices: np.ndarray  # (B,)
    task_wtps: np.ndarray  # (B,), NaN where the task had no WTP
    task_distances: np.ndarray  # (B,), NaN where no trace distance was known

    #: Array fields, in wire order (shared with the shm transport layout).
    ARRAY_FIELDS = (
        "task_coords",
        "task_times",
        "task_prices",
        "task_wtps",
        "task_distances",
    )

    def __post_init__(self) -> None:
        _coerce_arrays(self, self.ARRAY_FIELDS)

    @property
    def task_count(self) -> int:
        return len(self.task_ids)


def delta_from_tasks(shard_id: int, tasks: Sequence[Task]) -> ShardPayloadDelta:
    """Flatten one arrival batch into a :class:`ShardPayloadDelta`."""
    task_coords, task_times, task_prices, task_wtps, task_distances = _flatten_tasks(tasks)
    return ShardPayloadDelta(
        shard_id=shard_id,
        task_ids=tuple(t.task_id for t in tasks),
        task_coords=task_coords,
        task_times=task_times,
        task_prices=task_prices,
        task_wtps=task_wtps,
        task_distances=task_distances,
    )


def tasks_from_delta(delta: ShardPayloadDelta) -> Tuple[Task, ...]:
    """Rebuild the arrival batch (value-identical to the original tasks)."""
    return _rebuild_tasks(
        delta.task_ids,
        delta.task_coords,
        delta.task_times,
        delta.task_prices,
        delta.task_wtps,
        delta.task_distances,
    )


def payload_from_shard(shard: MarketShard) -> ShardPayload:
    """Flatten a shard's sub-instance into a :class:`ShardPayload`."""
    instance = shard.instance
    n = instance.driver_count

    driver_coords = np.empty((n, 4), dtype=float)
    driver_windows = np.empty((n, 2), dtype=float)
    for i, driver in enumerate(instance.drivers):
        driver_coords[i] = (
            driver.source.lat,
            driver.source.lon,
            driver.destination.lat,
            driver.destination.lon,
        )
        driver_windows[i] = (driver.start_ts, driver.end_ts)

    task_coords, task_times, task_prices, task_wtps, task_distances = _flatten_tasks(
        instance.tasks
    )

    return ShardPayload(
        shard_id=shard.spec.shard_id,
        driver_ids=tuple(d.driver_id for d in instance.drivers),
        driver_coords=driver_coords,
        driver_windows=driver_windows,
        task_ids=tuple(t.task_id for t in instance.tasks),
        task_coords=task_coords,
        task_times=task_times,
        task_prices=task_prices,
        task_wtps=task_wtps,
        task_distances=task_distances,
        cost_model=instance.cost_model,
    )


def instance_from_payload(payload: ShardPayload) -> MarketInstance:
    """Rebuild the shard's sub-instance (value-identical to the original)."""
    drivers = tuple(
        Driver(
            driver_id=driver_id,
            source=GeoPoint(float(coords[0]), float(coords[1])),
            destination=GeoPoint(float(coords[2]), float(coords[3])),
            start_ts=float(window[0]),
            end_ts=float(window[1]),
        )
        for driver_id, coords, window in zip(
            payload.driver_ids, payload.driver_coords, payload.driver_windows
        )
    )
    tasks = _rebuild_tasks(
        payload.task_ids,
        payload.task_coords,
        payload.task_times,
        payload.task_prices,
        payload.task_wtps,
        payload.task_distances,
    )
    return MarketInstance(drivers=drivers, tasks=tasks, cost_model=payload.cost_model)
