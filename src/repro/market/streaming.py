"""A streaming market instance: eager per-task columns, arcs and driver maps
built on read.

:class:`~repro.market.instance.MarketInstance` is an immutable snapshot: its
``with_tasks`` slicer starts every derived structure afresh, so feeding an
order *stream* through it would rebuild ``O((N + M) · M)`` state on every
arrival batch.  :class:`StreamingMarketInstance` splits that state by who
reads it:

* the **per-task columns** (:class:`~repro.market.taskmap.TaskColumns`:
  Eq. 1, durations, costs, prices, deadlines, coordinates) are all the online
  algorithms read, so ``append_tasks`` maintains exactly those, eagerly, in
  amortised-doubling storage — ``O(B)`` for a batch of ``B`` tasks, whatever
  the instance holds;
* the **arcs and driver task maps** (Eqs. 2-3) are what the offline solvers
  walk.  There is one builder for them: the first read of ``task_network`` /
  ``task_maps`` / ``task_map()`` / ``snapshot()`` builds one
  :class:`~repro.market.instance.MarketInstance` over the held tasks (sharing
  the stream's column views) and caches it; every read until the next
  non-empty append returns that snapshot's structures.

A dispatch stream, which never reads an arc, therefore costs ``O(M)`` in
total; a read after an append pays one full ``O((N + M) · M)`` build.

Parity contracts
----------------

* **Streamed columns == rebuilt columns, any batch split.**  After any
  sequence of ``append_tasks`` batches, ``task_columns`` equals the columns
  of a from-scratch :class:`~repro.market.instance.MarketInstance` over the
  same inputs under ``np.array_equal``; the arcs and maps, whenever read,
  come from the one builder over those columns (hypothesis-pinned in
  ``tests/market/test_streaming.py``).
* **Stream == replay.**  Because of the above, any simulator consuming a
  streaming instance live (``BatchedSimulator.run_stream`` and the
  distributed ``solve_stream`` shard sessions built on it) produces exactly
  the outcome a replay over the completed task set would — the property the
  online and distributed layers' parity tests rest on.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .cost import MarketCostModel
from .driver import Driver
from .instance import MarketInstance
from .task import Task
from .taskmap import COLUMN_NAMES, DriverTaskMap, TaskColumns, TaskNetwork, build_task_columns

#: Rows the column storage starts with (it doubles from there).
_INITIAL_CAPACITY = 64


class StreamingMarketInstance:
    """A market instance whose task set grows in publish-ordered batches.

    Exposes the read API of :class:`~repro.market.instance.MarketInstance`
    (``drivers`` / ``tasks`` / ``cost_model`` / ``task_columns`` /
    ``task_network`` / ``task_maps`` / ``task_map`` / counts), so solvers and
    simulators consume it unchanged; :meth:`append_tasks` is the streaming
    entry point.
    """

    def __init__(
        self,
        drivers: Iterable[Driver],
        cost_model: Optional[MarketCostModel] = None,
        tasks: Iterable[Task] = (),
    ) -> None:
        self._drivers: Tuple[Driver, ...] = tuple(drivers)
        driver_ids = [d.driver_id for d in self._drivers]
        if len(set(driver_ids)) != len(driver_ids):
            raise ValueError("driver ids must be unique")
        self._cost_model = cost_model or MarketCostModel()
        self._tasks: List[Task] = []
        self._tasks_tuple: Optional[Tuple[Task, ...]] = ()
        self._index_by_task_id: Dict[str, int] = {}
        # Eager state: column buffers with spare capacity; rows past
        # ``len(self._tasks)`` are unwritten.
        self._buffers: TaskColumns = build_task_columns((), self._cost_model)
        self._columns: Optional[TaskColumns] = None
        # Read-side state: built by the first read, dropped by the next append.
        self._snapshot: Optional[MarketInstance] = None
        initial = tuple(tasks)
        if initial:
            self.append_tasks(initial)

    @classmethod
    def from_instance(cls, instance: MarketInstance) -> "StreamingMarketInstance":
        """Seed a stream with an existing instance's drivers and tasks."""
        return cls(instance.drivers, instance.cost_model, instance.tasks)

    # ------------------------------------------------------------------
    # MarketInstance read API
    # ------------------------------------------------------------------
    @property
    def drivers(self) -> Tuple[Driver, ...]:
        return self._drivers

    @property
    def tasks(self) -> Tuple[Task, ...]:
        # Cached between appends: the simulators subscript this property per
        # pending task per window, so rebuilding an O(M) tuple on every
        # access would make a long stream quadratic.
        if self._tasks_tuple is None:
            self._tasks_tuple = tuple(self._tasks)
        return self._tasks_tuple

    @property
    def cost_model(self) -> MarketCostModel:
        return self._cost_model

    @property
    def driver_count(self) -> int:
        return len(self._drivers)

    @property
    def task_count(self) -> int:
        return len(self._tasks)

    @property
    def task_columns(self) -> TaskColumns:
        """The per-task columns of every held task: views over the column
        storage, never a copy, and always current — no arc or map is built.
        A view taken earlier stays valid (and keeps its length) across later
        appends."""
        if self._columns is None:
            self._columns = self._buffers.head(len(self._tasks))
        return self._columns

    @property
    def task_network(self) -> TaskNetwork:
        return self.snapshot().task_network

    @property
    def task_maps(self) -> Dict[str, DriverTaskMap]:
        return self.snapshot().task_maps

    def task_map(self, driver_id: str) -> DriverTaskMap:
        return self.snapshot().task_map(driver_id)

    def task_index(self, task_id: str) -> int:
        try:
            return self._index_by_task_id[task_id]
        except KeyError:
            raise KeyError(f"unknown task id {task_id!r}") from None

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> MarketInstance:
        """An immutable :class:`MarketInstance` over the held tasks, cached
        until the next non-empty append.

        It shares the stream's column views, so its arcs and maps are built
        by the one :class:`MarketInstance` builder, once per snapshot, on
        first read.  A snapshot taken earlier keeps its tasks and arrays
        across later appends.
        """
        if self._snapshot is None:
            instance = self.rebuild()
            instance.__dict__["task_columns"] = self.task_columns
            self._snapshot = instance
        return self._snapshot

    def rebuild(self) -> MarketInstance:
        """A from-scratch :class:`MarketInstance` over the same inputs (the
        reference the streamed state must match bit for bit)."""
        return MarketInstance(
            drivers=self._drivers, tasks=self.tasks, cost_model=self._cost_model
        )

    # ------------------------------------------------------------------
    # streaming
    # ------------------------------------------------------------------
    def append_tasks(self, new_tasks: Iterable[Task]) -> Tuple[Task, ...]:
        """Append a batch of tasks: ``O(len(batch))`` amortised, whatever the
        instance holds.  Only the per-task columns are written; arcs and
        driver maps wait for a reader.  Returns the batch as appended (the
        empty tuple for a no-op).
        """
        batch = tuple(new_tasks)
        if not batch:
            return ()
        first = len(self._tasks)
        fresh_ids = {task.task_id: first + i for i, task in enumerate(batch)}
        if len(fresh_ids) != len(batch):
            raise ValueError("duplicate task id inside the appended batch")
        for task_id in fresh_ids:
            if task_id in self._index_by_task_id:
                raise ValueError(f"duplicate task id {task_id!r}")

        fresh = build_task_columns(batch, self._cost_model)
        count = first + len(batch)
        if count > len(self._buffers.servable):
            self._grow(count)
        for name in COLUMN_NAMES:
            getattr(self._buffers, name)[first:count] = getattr(fresh, name)
        self._columns = None
        self._snapshot = None
        self._tasks.extend(batch)
        self._tasks_tuple = None
        self._index_by_task_id.update(fresh_ids)
        return batch

    def _grow(self, needed: int) -> None:
        """Move the columns to buffers of at least ``needed`` rows (doubling).
        The old buffers are left untouched, so views handed out earlier keep
        their values."""
        capacity = max(needed, 2 * len(self._buffers.servable), _INITIAL_CAPACITY)
        held = len(self._tasks)
        grown = []
        for name in COLUMN_NAMES:
            old = getattr(self._buffers, name)
            buffer = np.empty((capacity,) + old.shape[1:], dtype=old.dtype)
            buffer[:held] = old[:held]
            grown.append(buffer)
        self._buffers = TaskColumns(*grown)
