"""A streaming market instance: eager per-task columns, arcs and driver maps
materialised on read.

:class:`~repro.market.instance.MarketInstance` is an immutable snapshot: its
``with_tasks`` slicer throws away the shared task network and every
per-driver task map, so feeding an order *stream* through it rebuilds
``O((N + M) · M)`` state on every arrival batch.
:class:`StreamingMarketInstance` splits that state by who reads it:

* the **per-task columns** (:class:`~repro.market.taskmap.TaskColumns`:
  Eq. 1, durations, costs, prices, deadlines, coordinates) are all the online
  algorithms read, so ``append_tasks`` maintains exactly those, eagerly, in
  amortised-doubling storage;
* the **arcs and driver task maps** (Eqs. 2-3) are what the offline solvers
  walk.  They are caught up on *read* — ``task_network`` / ``task_maps`` /
  ``task_map()`` / ``snapshot()`` — from a watermark, by extending the
  materialised :class:`~repro.market.taskmap.TaskNetwork` and every
  :class:`~repro.market.taskmap.DriverTaskMap` by all pending tasks at once:
  two block leg-matrix calls for the network (``old -> new``, ``new -> all``)
  and two fleet-batched block calls per fleet chunk for the maps, instead of
  the full ``M x M`` and ``N x M`` matrices;
* the arithmetic replicates :func:`~repro.market.taskmap.build_task_network` /
  :func:`~repro.market.taskmap.build_driver_task_maps` element for element
  (the batch kernels are elementwise), so every array is **bit-identical** to
  a from-scratch rebuild — the equivalence property tests in
  ``tests/market/test_streaming.py`` pin this.

Costs, for an instance holding ``M`` tasks and ``N`` drivers: appending a
batch of ``B`` tasks is ``O(B)`` amortised, independent of ``M`` and ``N``; a
read with ``K`` tasks pending pays one ``O((N + M) · K)`` catch-up of array
work (no Python loop over ``Task`` objects), and a read with nothing pending
pays nothing.  A dispatch stream, which never reads an arc, therefore costs
``O(M)`` in total; a reader that looks every ``k`` appends pays ``k`` times
fewer array copies than one that looks after each; either way far less than
the ``O((N + M) · M)`` rebuild a plain ``with_tasks`` forces per batch.

:meth:`StreamingMarketInstance.drivers_gaining_entry` answers which drivers
gained an entry-feasible task since a given task index, so re-solvers know
whom to reconsider without diffing the maps themselves.

Parity contracts
----------------

* **Whenever read, bit-identical to a rebuild.**  After any sequence of
  ``append_tasks`` batches interleaved with any schedule of reads, every
  array a read returns equals a from-scratch
  :class:`~repro.market.instance.MarketInstance` over the same inputs under
  ``np.array_equal`` — not approximately (hypothesis-pinned in
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

from ..geo.batch import coord_array
from .cost import MarketCostModel
from .driver import Driver
from .instance import MarketInstance
from .task import Task
from .taskmap import (
    COLUMN_NAMES,
    FLEET_CHUNK,
    DriverTaskMap,
    TaskColumns,
    TaskNetwork,
    build_driver_task_maps,
    build_task_columns,
    build_task_network,
)

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
        # Read-side state, built by the first read and caught up by later ones.
        self._network: Optional[TaskNetwork] = None
        self._maps: Dict[str, DriverTaskMap] = {}
        self._driver_sources = coord_array([d.source for d in self._drivers])
        self._driver_destinations = coord_array([d.destination for d in self._drivers])
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
    def materialised_count(self) -> int:
        """How many tasks the arcs and driver maps currently cover (the
        read-side watermark; reads advance it to :attr:`task_count`)."""
        return 0 if self._network is None else self._network.task_count

    @property
    def task_columns(self) -> TaskColumns:
        """The per-task columns of every held task: views over the column
        storage, never a copy, and always current — no catch-up involved.
        A view taken earlier stays valid (and keeps its length) across later
        appends."""
        if self._columns is None:
            self._columns = self._buffers.head(len(self._tasks))
        return self._columns

    @property
    def task_network(self) -> TaskNetwork:
        self._catch_up()
        return self._network

    @property
    def task_maps(self) -> Dict[str, DriverTaskMap]:
        self._catch_up()
        return self._maps

    def task_map(self, driver_id: str) -> DriverTaskMap:
        try:
            return self.task_maps[driver_id]
        except KeyError:
            raise KeyError(f"unknown driver id {driver_id!r}") from None

    def task_index(self, task_id: str) -> int:
        try:
            return self._index_by_task_id[task_id]
        except KeyError:
            raise KeyError(f"unknown task id {task_id!r}") from None

    def drivers_gaining_entry(self, first_index: int) -> Tuple[str, ...]:
        """Ids of the drivers, in fleet order, for whom at least one task
        ``m >= first_index`` is entry-feasible (appears in their
        :meth:`~repro.market.taskmap.DriverTaskMap.entry_tasks`) — with
        ``first_index`` the task count before an append, the drivers that
        append affected."""
        return tuple(
            driver_id
            for driver_id, task_map in self.task_maps.items()
            if task_map.entry_ok[first_index:].any()
        )

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> MarketInstance:
        """An immutable :class:`MarketInstance` view of the current state.

        The columns, the caught-up network and the maps are *shared* with
        the snapshot (they are exactly what the snapshot would lazily build),
        so taking one costs a catch-up, never a rebuild.
        """
        instance = self.rebuild()
        instance.__dict__["task_columns"] = self.task_columns
        instance.__dict__["task_network"] = self.task_network
        instance.__dict__["task_maps"] = self.task_maps
        return instance

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

    # ------------------------------------------------------------------
    # read-side catch-up
    # ------------------------------------------------------------------
    def _catch_up(self) -> None:
        """Bring the network and the maps up to :attr:`task_count`, extending
        them by every pending task in one step."""
        if self._network is None:
            self._network = build_task_network((), self._cost_model)
            self._maps = build_driver_task_maps(
                self._drivers, self._network, self._cost_model
            )
        old_count = self._network.task_count
        if old_count == len(self._tasks):
            return
        network = self._extend_network(old_count)
        self._maps = self._extend_maps(network, old_count)
        self._network = network

    def _extend_network(self, old_count: int) -> TaskNetwork:
        """The materialised network plus the rows and columns of the tasks
        from ``old_count`` on.

        Replicates :func:`build_task_network` block-wise: the ``old -> new``
        and ``new -> all`` leg blocks are the only parts of the full pairwise
        matrix that involve a new task, and the batch kernels are elementwise,
        so every stored value matches the full rebuild exactly.
        """
        net = self._network
        cost_model = self._cost_model
        columns = self.task_columns
        sdl, edl, servable = columns.start_deadlines, columns.end_deadlines, columns.servable
        sdl_new, edl_new, servable_new = sdl[old_count:], edl[old_count:], servable[old_count:]
        sources_new = columns.sources[old_count:]
        destinations_new = columns.destinations[old_count:]

        successors = list(net.successors)
        leg_times = list(net.leg_times)
        leg_costs = list(net.leg_costs)

        if old_count:
            # old -> new arcs: destinations of old tasks to sources of new.
            time_block, cost_block = cost_model.pairwise_leg_matrix(
                columns.destinations[:old_count], sources_new
            )  # (old, K)
            connectable = time_block <= (sdl_new[None, :] - edl[:old_count, None]) + 1e-9
            connectable &= servable_new[None, :]
            connectable &= servable[:old_count, None]
            for m in np.nonzero(connectable.any(axis=1))[0]:
                extra = np.nonzero(connectable[m])[0]
                successors[m] = np.concatenate([successors[m], old_count + extra])
                leg_times[m] = np.concatenate([leg_times[m], time_block[m, extra]])
                leg_costs[m] = np.concatenate([leg_costs[m], cost_block[m, extra]])

        # new -> all arcs: destinations of new tasks to every source.
        time_block, cost_block = cost_model.pairwise_leg_matrix(
            destinations_new, columns.sources
        )  # (K, old + K)
        connectable = time_block <= (sdl[None, :] - edl_new[:, None]) + 1e-9
        pending = np.arange(len(sdl_new))
        connectable[pending, old_count + pending] = False  # no self-arc
        connectable &= servable[None, :]
        connectable &= servable_new[:, None]
        for i in pending:
            succ = np.nonzero(connectable[i])[0]
            successors.append(succ)
            leg_times.append(time_block[i, succ])
            leg_costs.append(cost_block[i, succ])

        return TaskNetwork(
            tasks=self.tasks,
            columns=columns,
            successors=tuple(successors),
            leg_times=tuple(leg_times),
            leg_costs=tuple(leg_costs),
            topo_order=np.argsort(sdl, kind="stable"),
        )

    def _extend_maps(self, network: TaskNetwork, old_count: int) -> Dict[str, DriverTaskMap]:
        """Every driver's task map extended by the columns of the tasks from
        ``old_count`` on (fleet-batched, chunked like
        :func:`build_driver_task_maps`), over the caught-up ``network``."""
        cost_model = self._cost_model
        fleet = self._drivers
        columns = network.columns
        sources_new = columns.sources[old_count:]
        destinations_new = columns.destinations[old_count:]
        sdl_new = columns.start_deadlines[old_count:]
        edl_new = columns.end_deadlines[old_count:]
        servable_new = columns.servable[old_count:]

        maps: Dict[str, DriverTaskMap] = {}
        for lo in range(0, len(fleet), FLEET_CHUNK):
            hi = lo + FLEET_CHUNK
            source_times, source_costs = cost_model.pairwise_leg_matrix(
                self._driver_sources[lo:hi], sources_new
            )  # (chunk, K)
            sink_times, sink_costs = cost_model.pairwise_leg_matrix(
                destinations_new, self._driver_destinations[lo:hi]
            )  # (K, chunk)
            for j, driver in enumerate(fleet[lo:hi]):
                old_map = self._maps[driver.driver_id]
                src_t = source_times[j]
                snk_t = sink_times[:, j]
                exit_new = servable_new & (snk_t <= (driver.end_ts - edl_new) + 1e-9)
                entry_new = exit_new & (src_t <= (sdl_new - driver.start_ts) + 1e-9)
                maps[driver.driver_id] = DriverTaskMap(
                    driver=driver,
                    network=network,
                    entry_ok=np.concatenate([old_map.entry_ok, entry_new]),
                    exit_ok=np.concatenate([old_map.exit_ok, exit_new]),
                    source_leg_times=np.concatenate([old_map.source_leg_times, src_t]),
                    source_leg_costs=np.concatenate([old_map.source_leg_costs, source_costs[j]]),
                    sink_leg_times=np.concatenate([old_map.sink_leg_times, snk_t]),
                    sink_leg_costs=np.concatenate([old_map.sink_leg_costs, sink_costs[:, j]]),
                    direct_leg=old_map.direct_leg,
                )
        return maps
