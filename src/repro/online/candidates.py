"""Vectorised driver-candidate generation — the online dispatch hot path.

Both online simulators (the per-order :class:`~repro.online.simulator.OnlineSimulator`
implementing Algorithms 3-4 and the rolling-horizon
:class:`~repro.online.batch.BatchedSimulator`) repeatedly answer the same
question: *which drivers can feasibly serve these tasks, and at what marginal
value?*  They ask it through one query,
:meth:`CandidateKernel.candidates_for_window` — the per-order simulator with
a one-task window.  The original implementation walked every driver in
Python and called the scalar distance estimator three times per (driver,
task) pair — an ``O(N x M)`` scalar-haversine loop that dominated wall-clock
on every benchmark.

:class:`CandidateKernel` replaces that loop with NumPy arithmetic over
persistent driver-state arrays:

* the approach legs (driver location -> task source), home legs (task
  destination -> driver destination) and current home legs (driver location
  -> driver destination) are computed with the estimator's batch kernels
  (:meth:`~repro.geo.distance.DistanceEstimator.cross_km` /
  :meth:`~repro.geo.distance.DistanceEstimator.pairwise_km`);
* every feasibility test of the scalar loop (pickup deadline, drop-off
  deadline, shift end) becomes a boolean mask with the *same* arithmetic and
  the same epsilons, so the surviving candidates and their marginal values
  match the scalar path to floating-point round-off;
* a :class:`~repro.geo.grid.GridIndex` over driver locations turns the
  per-task scan into a range query: only drivers within the task's
  travel-time reach are even considered.  The index answers *supersets*, so
  it never changes the candidate set; the kernel engages it whenever the
  fleet and the service area make it pay — there is no switch.

Per-task inputs are read from ``instance.task_columns``; the kernel caches
only the radian form of the coordinates.  The scalar loop it replaced is
``tests/candidate_oracle.py`` (``candidates_for_scalar`` per task,
``candidates_for_window_scalar`` per window):
``tests/online/test_candidate_kernel.py`` and
``benchmarks/bench_algorithms_micro.py`` substitute it for the query and
require identical candidates and whole-simulation outcomes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..geo import GridIndex, bounding_box_of
from ..geo.batch import coord_array, metric_fn
from ..market.instance import MarketInstance
from ..market.task import Task
from .state import Candidate, DriverState

#: The spatial index is only engaged for service areas where the built-in
#: estimators' ``prune_radius_km`` margins are provably supersets: city-scale
#: boxes (diagonal below a few hundred km) away from the poles.  Larger or
#: polar instances silently fall back to the exhaustive (still vectorised)
#: scan, keeping the "index never changes the outcome" guarantee.
_MAX_INDEX_DIAGONAL_KM = 300.0
_MAX_INDEX_ABS_LAT_DEG = 70.0
#: Fleets below this size are scanned whole: the query costs more than it skips.
_MIN_INDEX_FLEET = 24
_INDEX_CELL_KM = 1.0


class CandidateKernel:
    """Feasible-candidate search over a fleet of mutable driver states.

    Parameters
    ----------
    instance:
        The market being simulated.
    states:
        The simulator's driver states, in dispatch order.  The kernel keeps
        array mirrors of each state's position and free-at time:
        :meth:`commit` makes an assignment and refreshes them, and a
        simulator that moves a driver itself (repositioning) calls
        :meth:`sync`.

    Timing is trace replay: a driver picks up at ``max(arrival, start
    deadline)`` and drops off one recorded ride window later.
    """

    def __init__(self, instance: MarketInstance, states: Iterable[DriverState]) -> None:
        self.instance = instance
        travel_model = instance.cost_model.travel_model
        self._estimator = travel_model.estimator
        # Every query resolves the rates in effect at its ``now_ts``.
        self._rates_at = travel_model.rates_at
        self._max_speed_kmh = travel_model.max_speed_kmh

        self._states: List[DriverState] = list(states)
        n = len(self._states)
        self._slot_by_driver: Dict[str, int] = {
            state.driver.driver_id: slot for slot, state in enumerate(self._states)
        }
        if len(self._slot_by_driver) != n:
            raise ValueError("driver ids must be unique")

        self._loc = coord_array([s.location for s in self._states])
        self._free_at = np.array([s.free_at for s in self._states], dtype=float)
        self._driver_start = np.array([s.driver.start_ts for s in self._states], dtype=float)
        self._driver_end = np.array([s.driver.end_ts for s in self._states], dtype=float)
        self._dest = coord_array([s.driver.destination for s in self._states])

        # Fast path: the built-in estimators name their raw batch kernel, so
        # the hot loop can keep radian arrays and skip the per-call degree
        # conversion; exotic estimators go through their (generic) batch API.
        metric = getattr(self._estimator, "batch_metric", None)
        self._metric = metric_fn(metric) if metric is not None else None
        self._metric_scale = float(getattr(self._estimator, "circuity", 1.0))
        self._loc_rad = np.radians(self._loc)
        self._dest_rad = np.radians(self._dest)
        columns = instance.task_columns
        self._task_sources_rad = np.radians(columns.sources)
        self._task_destinations_rad = np.radians(columns.destinations)
        # Current-home distances (driver location -> own destination) change
        # only when a driver moves, so they are cached and refreshed per-slot
        # in :meth:`sync` instead of being recomputed on every query.
        self._current_home_km = self._distances_elementwise(
            self._loc_rad, self._loc, self._dest_rad, self._dest
        )

        self._grid: Optional[GridIndex] = None
        if n >= _MIN_INDEX_FLEET and self._estimator.prune_radius_km(1.0) is not None:
            box = bounding_box_of(
                [s.location for s in self._states]
                + [s.driver.destination for s in self._states]
                + [t.source for t in instance.tasks]
                + [t.destination for t in instance.tasks]
            )
            if (
                box is not None
                and box.diagonal_km() <= _MAX_INDEX_DIAGONAL_KM
                and max(abs(box.south), abs(box.north)) <= _MAX_INDEX_ABS_LAT_DEG
            ):
                self._grid = GridIndex(box, cell_km=_INDEX_CELL_KM)
                for state in self._states:
                    self._grid.add(state.location)

    # ------------------------------------------------------------------
    # state tracking
    # ------------------------------------------------------------------
    @property
    def uses_spatial_index(self) -> bool:
        return self._grid is not None

    def extend_tasks(self) -> int:
        """Extend the radian coordinate cache to the tasks a streaming
        consumer appended to the instance since construction (or the last
        call), from the new rows of its ``task_columns``.

        Returns the number of tasks picked up.  The spatial index keys only
        driver positions, so it needs no refresh; a task outside the original
        bounding box simply degrades that task's query to the exhaustive scan
        (the superset guarantee is unconditional).
        """
        columns = self.instance.task_columns
        known = self._task_sources_rad.shape[0]
        fresh = columns.sources.shape[0] - known
        if fresh <= 0:
            return 0
        self._task_sources_rad = np.concatenate(
            [self._task_sources_rad, np.radians(columns.sources[known:])]
        )
        self._task_destinations_rad = np.concatenate(
            [self._task_destinations_rad, np.radians(columns.destinations[known:])]
        )
        return fresh

    def commit(self, choice: Candidate, task_index: int, task: Task) -> None:
        """Assign ``task`` to the chosen candidate's driver: her state
        advances to the drop-off, her running profit takes the price minus
        the in-task and approach costs, and the array mirrors follow."""
        service_cost = float(self.instance.task_columns.service_costs[task_index])
        choice.state.assign(
            task_index=task_index,
            pickup_location=task.source,
            dropoff_location=task.destination,
            dropoff_ts=choice.dropoff_ts,
            profit_delta=task.price - service_cost - choice.approach_cost,
            arrival_ts=choice.arrival_ts,
        )
        self.sync(choice.state)

    def sync(self, state: DriverState) -> None:
        """Refresh the array mirrors after ``state`` moved or was assigned."""
        slot = self._slot_by_driver[state.driver.driver_id]
        self._loc[slot, 0] = state.location.lat
        self._loc[slot, 1] = state.location.lon
        self._loc_rad[slot] = np.radians(self._loc[slot])
        self._free_at[slot] = state.free_at
        self._current_home_km[slot] = self._distances_elementwise(
            self._loc_rad[slot : slot + 1],
            self._loc[slot : slot + 1],
            self._dest_rad[slot : slot + 1],
            self._dest[slot : slot + 1],
        )[0]
        if self._grid is not None:
            self._grid.update(slot, state.location)

    # ------------------------------------------------------------------
    # batch distances (fast radian path for the built-in estimators)
    # ------------------------------------------------------------------
    def _distances_elementwise(self, a_rad: np.ndarray, a_deg: np.ndarray,
                               b_rad: np.ndarray, b_deg: np.ndarray) -> np.ndarray:
        """Estimator distances ``a[i] -> b[i]``."""
        if self._metric is not None:
            return self._metric_scale * self._metric(
                a_rad[:, 0], a_rad[:, 1], b_rad[:, 0], b_rad[:, 1]
            )
        return self._estimator.pairwise_km(a_deg, b_deg)

    def _distances_cross(self, a_rad: np.ndarray, a_deg: np.ndarray,
                         b_rad: np.ndarray, b_deg: np.ndarray) -> np.ndarray:
        """Estimator distance matrix ``a[i] -> b[j]``."""
        if self._metric is not None:
            return self._metric_scale * self._metric(
                a_rad[:, 0][:, None], a_rad[:, 1][:, None],
                b_rad[:, 0][None, :], b_rad[:, 1][None, :],
            )
        return self._estimator.cross_km(a_deg, b_deg)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def candidates_for_window(
        self, task_indices: Sequence[int], now_ts: float
    ) -> Dict[int, List[Candidate]]:
        """Feasible candidates for a whole dispatch window at once.

        Builds the window's approach/home cost matrices with one ``cross_km``
        call each instead of per-task scans.  This is the kernel's one query:
        the batched simulator asks it for a dispatch window, the per-order
        simulator for a one-task window ``[task_index]``.  When the spatial
        index is active, the driver axis is first shrunk to the *union of
        reach* of the window's tasks (every driver inside some task's grid
        range query) — a superset of every feasible pair, so the returned
        candidates are identical with the index on or off and only the
        matrix width changes.  Returns ``{task_index: candidates}`` with
        tasks without candidates omitted.
        """
        columns = self.instance.task_columns
        live = [m for m in task_indices if columns.servable[m]]
        if not live or not self._states:
            return {}
        tasks = [self.instance.tasks[m] for m in live]
        idx = np.asarray(live, dtype=np.intp)

        slots = self._window_slots(tasks, now_ts)  # (D',) union of reach
        if slots.size == 0:
            return {}
        speed_kmh, cost_per_km = self._rates_at(now_ts)

        sdl = columns.start_deadlines[idx]
        edl = columns.end_deadlines[idx]
        prices = columns.prices[idx]
        service_costs = columns.service_costs[idx].astype(float)

        depart = np.maximum(self._free_at[slots], self._driver_start[slots])
        depart = np.maximum(depart, now_ts)  # (D',)

        feasible = depart[None, :] <= sdl[:, None]  # (T, D')

        approach_km = self._distances_cross(
            self._loc_rad[slots], self._loc[slots],
            self._task_sources_rad[idx], columns.sources[idx],
        )  # (D', T)
        approach_time = (approach_km / speed_kmh * 3600.0).T  # (T, D')
        approach_cost = (approach_km * cost_per_km).T
        arrival = depart[None, :] + approach_time
        feasible &= arrival <= sdl[:, None] + 1e-9
        pickup = np.maximum(arrival, sdl[:, None])
        dropoff = pickup + (edl - sdl)[:, None]
        feasible &= dropoff <= edl[:, None] + 1e-9

        home_km = self._distances_cross(
            self._task_destinations_rad[idx], columns.destinations[idx],
            self._dest_rad[slots], self._dest[slots],
        )  # (T, D')
        home_time = home_km / speed_kmh * 3600.0
        home_cost = home_km * cost_per_km
        feasible &= dropoff + home_time <= self._driver_end[slots][None, :] + 1e-9

        current_home_cost = self._current_home_km[slots] * cost_per_km  # (D',)
        marginal = prices[:, None] - (
            home_cost + service_costs[:, None] + approach_cost - current_home_cost[None, :]
        )

        # Every feasible cell in one set of flat ``.tolist()`` gathers (row
        # major, so each task's cells are one contiguous run in fleet
        # order), then one slice per task with candidates.
        cells = np.flatnonzero(feasible)
        if not cells.size:
            return {}
        cols = cells % feasible.shape[1]
        states = self._states
        found = [
            Candidate(
                state=states[slot],
                arrival_ts=arr,
                dropoff_ts=drop,
                approach_cost=cost,
                marginal_value=margin,
            )
            for slot, arr, drop, cost, margin in zip(
                slots[cols].tolist(),
                arrival.take(cells).tolist(),
                dropoff.take(cells).tolist(),
                approach_cost.take(cells).tolist(),
                marginal.take(cells).tolist(),
            )
        ]
        out: Dict[int, List[Candidate]] = {}
        stop = 0
        for m, count in zip(live, feasible.sum(axis=1).tolist()):
            if count:
                start, stop = stop, stop + count
                out[m] = found[start:stop]
        return out

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _window_slots(self, tasks: Sequence[Task], now_ts: float) -> np.ndarray:
        """The union of reach of a dispatch window: every driver slot inside
        at least one window task's grid range query (the whole fleet when the
        index is off).  Sorted, so restricting the window matrices to these
        slots preserves the per-task candidate order."""
        n = len(self._states)
        if self._grid is None:
            return np.arange(n, dtype=np.intp)
        union = np.zeros(n, dtype=bool)
        for task in tasks:
            # A driver departing no earlier than ``now_ts`` must cover the
            # whole approach within the pickup-deadline budget; convert that
            # distance budget into a safe straight-line radius for the grid
            # query.  The profile's *maximum* speed keeps the range query a
            # superset of the exact checks: a faster future window can never
            # shrink the reach below this bound (on a flat profile it is the
            # base speed).
            budget_s = max(0.0, task.start_deadline_ts - now_ts) + 1.0
            reach_km = budget_s / 3600.0 * self._max_speed_kmh
            prune_km = self._estimator.prune_radius_km(reach_km)
            if prune_km is None:
                return np.arange(n, dtype=np.intp)
            slots = self._grid.query_slots(task.source, prune_km)
            if slots.size == n:
                return slots
            union[slots] = True
        return np.nonzero(union)[0]
