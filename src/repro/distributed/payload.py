"""Array-backed shard records for the process-pool executor.

A process slot is never shipped ``Task`` objects: pickling the object graph
would ship per-object overhead the worker does not need, so the pool
flattens a shard's tasks into a :class:`ShardPayloadDelta` — a shard id plus
the tasks' *primal* inputs as a handful of NumPy columns.  There is one
record kind, for an offline shard (all of its tasks) and a stream arrival
batch alike; the drivers, cost model and solver settings travel beside it as
plain call arguments.  Only the pool flattens (``submit_shipment``) and
rebuilds (its one opener); an inline slot never sees a record.

The round trip is exact: coordinates, timestamps and prices are stored as
``float64`` (the same representation the entities hold), so the tasks a
worker rebuilds with :func:`tasks_from_delta` are value-identical to the
originals and every deterministic solver produces bit-identical results on
either side of the pickle boundary.

Parity contracts
----------------

* **Primal inputs only.**  Records carry task coordinates, deadlines and
  prices — never object graphs, task networks or per-driver task maps.
  Workers rebuild all derived state themselves, so the wire format can never
  smuggle stale caches across the process boundary.
* **Delta round trip == the shard's tasks, any batch split.**  Flattening a
  shard's tasks in batches with :func:`delta_from_tasks` and appending the
  :func:`tasks_from_delta` rebuilds in order yields exactly the shard's task
  tuple, wherever the batch boundaries fall (pinned by a hypothesis test in
  ``tests/distributed/test_payload.py``) — one batch is an offline shard,
  many are a stream on process slots (a serial stream's sessions hold the
  caller's tasks, no delta).  That is what keeps the pooled merges
  bit-identical across executors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from ..market.task import Task
from ..geo import GeoPoint


@dataclass(frozen=True)
class ShardPayloadDelta:
    """One shard's tasks as flat columns: an offline shard's whole task set,
    or one stream arrival batch.

    A stream ships one delta per (shard, batch): only the new tasks cross
    the process boundary, so the per-batch wire cost is ``O(B)`` regardless
    of how many tasks the shard has accumulated.  ``task_coords`` holds
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
    """Rebuild the record's tasks (value-identical to the originals)."""
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
