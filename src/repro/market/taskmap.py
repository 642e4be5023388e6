"""Task-map construction (Section III-B, Eqs. 1-3).

The paper builds, for every driver, a directed acyclic graph whose nodes are
her virtual source (label 0), her virtual destination (label -1) and every
task; an arc means "the driver can take the head task after finishing the
tail task in time".

A naive per-driver construction is ``O(M²)`` per driver (``O(N·M²)`` in
total).  Two observations keep this fast at the scale of the paper's
evaluation (1000 tasks, up to 300 drivers):

* Eq. (1) — whether a task can be completed inside its own time window —
  and the leg condition of Eq. (3) — whether one task's destination can
  reach another task's source before its pickup deadline — do not depend on
  the driver at all (travel times come from distances and a shared average
  speed).  They are computed once and shared in a :class:`TaskNetwork`.
* Only the source-arc and sink-arc conditions of Eqs. (2)-(3) depend on the
  driver; they are vectorised per driver in :class:`DriverTaskMap`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Dict, Iterable, Optional, Sequence, Tuple

import numpy as np

from ..geo.batch import coord_array
from .cost import Leg, MarketCostModel
from .driver import Driver
from .task import Task

#: Node label of the driver's virtual source (the paper's node ``0``).
SOURCE_NODE = "source"
#: Node label of the driver's virtual destination (the paper's node ``-1``).
SINK_NODE = "sink"

#: Drivers per fleet-batched leg block.  Chunking the fleet bounds peak memory
#: at O(chunk x M) while keeping the batched-leg win; 512 drivers x 100k tasks
#: is ~400 MB transient, versus whole-fleet matrices growing without bound.
#: The values are chunk-size independent (the batch kernels are elementwise).
FLEET_CHUNK = 512


@dataclass(frozen=True)
class TaskColumns:
    """Per-task columns: everything about task ``m`` that involves neither
    another task nor a driver.

    This is all the *online* algorithms read (does the ride fit its own
    window, what does it cost to serve), so it is kept apart from the arcs:
    building it is ``O(M)`` — no leg matrix.

    Attributes
    ----------
    durations_s:
        ``l̂_m`` — in-task travel time for each task.
    service_costs:
        ``ĉ_m`` — in-task driving cost for each task.
    prices / valuations:
        ``p_m`` and ``b_m`` for each task.
    servable:
        Eq. (1): whether the task can be completed within its own window.
    start_deadlines / end_deadlines:
        Pickup and drop-off deadlines.
    sources / destinations:
        ``(M, 2)`` arrays of ``(lat, lon)`` decimal degrees.
    """

    durations_s: np.ndarray
    service_costs: np.ndarray
    prices: np.ndarray
    valuations: np.ndarray
    servable: np.ndarray
    start_deadlines: np.ndarray
    end_deadlines: np.ndarray
    sources: np.ndarray
    destinations: np.ndarray

    def head(self, count: int) -> "TaskColumns":
        """Views of the first ``count`` rows of every column."""
        return TaskColumns(*(getattr(self, name)[:count] for name in COLUMN_NAMES))


#: Field names of :class:`TaskColumns`, in declaration order.
COLUMN_NAMES: Tuple[str, ...] = tuple(f.name for f in fields(TaskColumns))


def build_task_columns(tasks: Sequence[Task], cost_model: MarketCostModel) -> TaskColumns:
    """The :class:`TaskColumns` of a collection of tasks."""
    durations = np.array([cost_model.task_duration_s(t) for t in tasks], dtype=float)
    start_deadlines = np.array([t.start_deadline_ts for t in tasks], dtype=float)
    end_deadlines = np.array([t.end_deadline_ts for t in tasks], dtype=float)
    return TaskColumns(
        durations_s=durations,
        service_costs=np.array([cost_model.task_cost(t) for t in tasks], dtype=float),
        prices=np.array([t.price for t in tasks], dtype=float),
        valuations=np.array([t.valuation for t in tasks], dtype=float),
        # Eq. (1): the ride itself must fit inside the task's own time window.
        servable=durations <= (end_deadlines - start_deadlines) + 1e-9,
        start_deadlines=start_deadlines,
        end_deadlines=end_deadlines,
        sources=coord_array([t.source for t in tasks]),
        destinations=coord_array([t.destination for t in tasks]),
    )


@dataclass(frozen=True)
class TaskNetwork:
    """Driver-independent part of the task maps, shared by all drivers: the
    per-task columns plus the task-to-task arcs.

    Attributes
    ----------
    tasks:
        The market's tasks, in index order (task ``m`` is ``tasks[m]``).
    columns:
        The per-task :class:`TaskColumns`; ``durations_s`` /
        ``service_costs`` / ``prices`` / ``valuations`` / ``servable`` are
        readable directly on the network.
    arc_ptr / arc_head / arc_cost:
        The task-to-task arcs (the driver-independent part of Eq. (3)) as one
        CSR table: the arcs out of task ``m`` are positions
        ``arc_ptr[m]:arc_ptr[m + 1]``, with heads ``m'`` in ascending order
        and the empty-drive leg cost of each connection.  ``successors`` /
        ``leg_costs`` are the same arrays split per task, as views.
    topo_order:
        Task indices sorted by pickup deadline — a valid topological order of
        every driver's task map, because every arc goes from an earlier
        drop-off deadline to a later pickup deadline.
    """

    tasks: Tuple[Task, ...]
    columns: TaskColumns
    arc_ptr: np.ndarray
    arc_head: np.ndarray
    arc_cost: np.ndarray
    topo_order: np.ndarray

    @property
    def task_count(self) -> int:
        return len(self.tasks)

    @property
    def durations_s(self) -> np.ndarray:
        return self.columns.durations_s

    @property
    def service_costs(self) -> np.ndarray:
        return self.columns.service_costs

    @property
    def prices(self) -> np.ndarray:
        return self.columns.prices

    @property
    def valuations(self) -> np.ndarray:
        return self.columns.valuations

    @property
    def servable(self) -> np.ndarray:
        return self.columns.servable

    @cached_property
    def successors(self) -> Tuple[np.ndarray, ...]:
        """For every task ``m``, the heads of its arcs (a view per task)."""
        return self._per_task(self.arc_head)

    @cached_property
    def leg_costs(self) -> Tuple[np.ndarray, ...]:
        """For every task ``m``, the leg costs of its arcs (a view per task)."""
        return self._per_task(self.arc_cost)

    def _per_task(self, values: np.ndarray) -> Tuple[np.ndarray, ...]:
        bounds = self.arc_ptr.tolist()
        return tuple(values[lo:hi] for lo, hi in zip(bounds[:-1], bounds[1:]))


def build_task_network(
    tasks: Sequence[Task],
    cost_model: MarketCostModel,
    columns: Optional[TaskColumns] = None,
) -> TaskNetwork:
    """Build the shared :class:`TaskNetwork` for a collection of tasks.

    ``columns`` are the tasks' :class:`TaskColumns` when the caller already
    holds them (they are shared, not copied); built here otherwise.
    """
    task_tuple = tuple(tasks)
    if columns is None:
        columns = build_task_columns(task_tuple, cost_model)
    servable = columns.servable

    # Driver-independent part of Eq. (3): destination of m can reach the
    # source of m' before m's drop-off deadline turns into m''s pickup
    # deadline.
    leg_time_matrix, leg_cost_matrix = cost_model.pairwise_leg_matrix(
        columns.destinations, columns.sources
    )
    slack = columns.start_deadlines[None, :] - columns.end_deadlines[:, None]
    connectable = leg_time_matrix <= slack + 1e-9
    np.fill_diagonal(connectable, False)
    connectable &= servable[None, :]
    connectable &= servable[:, None]

    # Row-major nonzeros: the arcs grouped by tail, heads ascending.
    tails, heads = np.nonzero(connectable)
    return TaskNetwork(
        tasks=task_tuple,
        columns=columns,
        arc_ptr=np.searchsorted(tails, np.arange(len(task_tuple) + 1)),
        arc_head=np.ascontiguousarray(heads),
        arc_cost=leg_cost_matrix[connectable],
        topo_order=np.argsort(columns.start_deadlines, kind="stable"),
    )


@dataclass(frozen=True)
class DriverTaskMap:
    """One driver's task map: the per-driver part of Eqs. (2)-(3).

    Attributes
    ----------
    driver:
        The driver this map belongs to.
    network:
        The shared driver-independent :class:`TaskNetwork`.
    entry_ok:
        Eq. (2): tasks with an arc from the driver's source node.
    exit_ok:
        Tasks with an arc to the driver's destination node (the driver can
        still reach her destination in time after dropping the customer off).
    source_leg_times / source_leg_costs:
        Empty-drive legs from the driver's source to every task's source.
    sink_leg_times / sink_leg_costs:
        Empty-drive legs from every task's destination to the driver's
        destination.
    direct_leg:
        ``c_{n,0,-1}`` — the driver's own source-to-destination leg.
    """

    driver: Driver
    network: TaskNetwork
    entry_ok: np.ndarray
    exit_ok: np.ndarray
    source_leg_times: np.ndarray
    source_leg_costs: np.ndarray
    sink_leg_times: np.ndarray
    sink_leg_costs: np.ndarray
    direct_leg: Leg

    # ------------------------------------------------------------------
    # structure queries
    # ------------------------------------------------------------------
    @property
    def task_count(self) -> int:
        return self.network.task_count

    def usable_tasks(self) -> np.ndarray:
        """Indices of tasks that can appear anywhere on one of this driver's
        paths (they must at least allow the driver to reach her sink)."""
        return np.nonzero(self.exit_ok)[0]

    def entry_tasks(self) -> np.ndarray:
        """Indices of tasks reachable directly from the driver's source."""
        return np.nonzero(self.entry_ok)[0]

    def has_any_task(self) -> bool:
        return bool(self.entry_ok.any())

    def successors_of(self, m: int, allowed: Optional[np.ndarray] = None) -> np.ndarray:
        """Tasks that may follow task ``m`` on this driver's path.

        ``allowed`` is an optional boolean mask (e.g. tasks not yet taken by
        other drivers in the greedy algorithm).
        """
        succ = self.network.successors[m]
        mask = self.exit_ok[succ]
        if allowed is not None:
            mask = mask & allowed[succ]
        return succ[mask]


def build_driver_task_maps(
    drivers: Iterable[Driver],
    network: TaskNetwork,
    cost_model: MarketCostModel,
) -> Dict[str, DriverTaskMap]:
    """Task maps for a whole fleet, keyed by driver id.

    This is the one place the driver-dependent conditions of Eqs. (2)-(3)
    are evaluated.  The source/sink legs of a fleet chunk come from two
    batch calls (``chunk x M`` and ``M x chunk`` matrices), so no per-driver
    leg call is made; a one-driver map is ``build_driver_task_maps([d],
    ...)[d.driver_id]``.
    """
    fleet = list(drivers)
    seen = set()
    for driver in fleet:
        if driver.driver_id in seen:
            raise ValueError(f"duplicate driver id {driver.driver_id!r}")
        seen.add(driver.driver_id)
    if not fleet:
        return {}

    columns = network.columns
    start_deadlines, end_deadlines = columns.start_deadlines, columns.end_deadlines

    maps: Dict[str, DriverTaskMap] = {}
    for lo in range(0, len(fleet), FLEET_CHUNK):
        chunk = fleet[lo : lo + FLEET_CHUNK]
        source_times, source_costs = cost_model.pairwise_leg_matrix(
            [d.source for d in chunk], columns.sources
        )  # (chunk, M)
        sink_times, sink_costs = cost_model.pairwise_leg_matrix(
            columns.destinations, [d.destination for d in chunk]
        )  # (M, chunk)
        for j, driver in enumerate(chunk):
            src_t = np.ascontiguousarray(source_times[j])
            src_c = np.ascontiguousarray(source_costs[j])
            snk_t = np.ascontiguousarray(sink_times[:, j])
            snk_c = np.ascontiguousarray(sink_costs[:, j])
            exit_ok = network.servable & (snk_t <= (driver.end_ts - end_deadlines) + 1e-9)
            entry_ok = exit_ok & (src_t <= (start_deadlines - driver.start_ts) + 1e-9)
            maps[driver.driver_id] = DriverTaskMap(
                driver=driver,
                network=network,
                entry_ok=entry_ok,
                exit_ok=exit_ok,
                source_leg_times=src_t,
                source_leg_costs=src_c,
                sink_leg_times=snk_t,
                sink_leg_costs=snk_c,
                direct_leg=cost_model.driver_direct_leg(driver.source, driver.destination),
            )
    return maps
