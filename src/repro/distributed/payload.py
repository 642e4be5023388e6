"""Array-backed shard records for the process-pool executor.

A :class:`~repro.distributed.partition.MarketShard` carries a full
:class:`~repro.market.instance.MarketInstance` object graph — drivers, tasks
and (possibly) the lazily cached task network and per-driver task maps.
Pickling that graph into a worker process would ship megabytes of derived
state the worker is going to rebuild anyway, so a process slot is shipped
flat records instead: the *primal* inputs flattened into a handful of NumPy
columns.  Only the pool flattens (``submit_shipment``) and rebuilds (its one
opener); an inline slot never sees a record.

There is one record shape.  A :class:`ShardPayloadDelta` is a shard id plus
a set of tasks — one stream arrival batch.  A :class:`ShardPayload` (one
offline solve) is the same record plus the shard's drivers and cost model.
Both declare their columns in ``ARRAY_FIELDS`` and their string-id columns
in ``ID_FIELDS``, which is all the transport layer needs to pack either.

The round trip is exact: coordinates, timestamps and prices are stored as
``float64`` (the same representation the entities hold), so the instance a
worker rebuilds with :func:`instance_from_payload` is value-identical to the
shard's own sub-instance and every deterministic solver produces bit-identical
results on either side of the pickle boundary.

Parity contracts
----------------

* **Primal inputs only.**  Records carry driver/task coordinates, windows,
  deadlines and prices plus the cost-model configuration — never object
  graphs, task networks or per-driver task maps.  Workers rebuild all
  derived state themselves, so the wire format can never smuggle stale
  caches across the process boundary.
* **Bit-identical round trip.**  ``instance_from_payload(payload_from_shard(s))``
  is value-identical to ``s.instance``, and merged coordinator solutions are
  bit-identical across the serial and process executors.
* **Deltas == full rebuild.**  For a stream on process slots, a
  :class:`ShardPayloadDelta` ships *only the new task columns* of one arrival
  batch (a serial stream's sessions hold the caller's tasks, no delta).  Reconstructing the batches of a stream with
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


@dataclass(frozen=True)
class ShardPayloadDelta:
    """One shard's tasks as flat columns — on its own, one arrival batch.

    The streaming coordinator ships one delta per (shard, batch) instead of
    re-sending the shard's whole payload: only the new tasks cross the
    process boundary, so the per-batch wire cost is ``O(B)`` regardless of
    how many tasks the shard has accumulated.  ``task_coords`` holds
    ``(src_lat, src_lon, dst_lat, dst_lon)`` per task and ``task_times``
    ``(publish_ts, start_deadline_ts, end_deadline_ts)``.  Optional task
    fields (willingness to pay, recorded trip distance) use ``NaN`` as the
    "not supplied" sentinel, which is unambiguous because both are validated
    finite on construction; :func:`tasks_from_delta` restores
    value-identical tasks.
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
    #: String-id fields, in wire order (one UTF-8 blob + lengths each).
    ID_FIELDS = ("task_ids",)

    def __post_init__(self) -> None:
        """Normalise every array field to C-contiguous ``float64`` in place.

        The transport layer (pickle and shared-memory alike) assumes it can
        ship each column as one flat buffer of known dtype; a transposed view
        or a ``float32`` array sneaking in would either silently copy at ship
        time or corrupt the fixed wire layout.  Coercing once, at
        construction, makes the invariant structural — and is free in the
        common case, because ``np.ascontiguousarray`` returns the input
        unchanged when it already complies (which also keeps the shm receive
        path zero-copy)."""
        for name in self.ARRAY_FIELDS:
            value = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            object.__setattr__(self, name, value)

    @property
    def task_count(self) -> int:
        return len(self.task_ids)


@dataclass(frozen=True)
class ShardPayload(ShardPayloadDelta):
    """One shard's primal inputs: its tasks (as a delta) plus its drivers.

    ``driver_coords`` holds ``(src_lat, src_lon, dst_lat, dst_lon)`` per
    driver and ``driver_windows`` ``(start_ts, end_ts)``.  The cost model is
    the record's one non-column field — a tiny frozen config object.
    """

    driver_ids: Tuple[str, ...]
    driver_coords: np.ndarray  # (N, 4)
    driver_windows: np.ndarray  # (N, 2): start_ts, end_ts
    cost_model: MarketCostModel

    ARRAY_FIELDS = ShardPayloadDelta.ARRAY_FIELDS + ("driver_coords", "driver_windows")
    ID_FIELDS = ShardPayloadDelta.ID_FIELDS + ("driver_ids",)

    @property
    def driver_count(self) -> int:
        return len(self.driver_ids)


def delta_from_tasks(shard_id: int, tasks: Sequence[Task]) -> ShardPayloadDelta:
    """Flatten one arrival batch into a :class:`ShardPayloadDelta`."""
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
    """Rebuild the record's tasks (value-identical to the originals); works
    on a full :class:`ShardPayload` too."""
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
            delta.task_ids,
            delta.task_coords,
            delta.task_times,
            delta.task_prices,
            delta.task_wtps,
            delta.task_distances,
        )
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
    return ShardPayload(
        **vars(delta_from_tasks(shard.spec.shard_id, instance.tasks)),
        driver_ids=tuple(d.driver_id for d in instance.drivers),
        driver_coords=driver_coords,
        driver_windows=driver_windows,
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
    return MarketInstance(
        drivers=drivers, tasks=tasks_from_delta(payload), cost_model=payload.cost_model
    )
