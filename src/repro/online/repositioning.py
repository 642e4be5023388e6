"""Idle-driver repositioning.

Section VI-C of the paper concludes that "an effective matching market
designer should make the market dense enough to ensure a high service rate".
Dispatch alone cannot do that when idle drivers sit where their last
drop-off happened to be; production platforms therefore *reposition* idle
drivers towards predicted demand.  This module holds the one repositioning
rule, used by the online simulator (``OnlineSimulator(repositioning=...)``,
``None`` being the do-nothing baseline) and by the rolling-horizon planner:

* :class:`DemandHeatmap` — a zone-by-hour count of historical ride requests
  (built from tasks) over a :class:`~repro.online.forecast.ZoneGrid`,
  answering "where is demand expected around time t?" with one per-zone
  count vector (:meth:`DemandHeatmap.at`).
* :class:`HotspotRepositioning` — moves a driver who has been idle for a
  while towards the busiest reachable zone centre, provided she can still
  make it to her own destination in time afterwards.  The empty drive is paid
  for by the driver, so repositioning only pays off when it wins her
  subsequent rides — exactly the trade-off the ablation benchmark measures.
  It reads any heatmap with a ``grid`` and an ``at(ts)`` vector: the
  historical :class:`DemandHeatmap` or the rolling-horizon
  :class:`~repro.online.horizon.LookaheadPlanner`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geo import BoundingBox, GeoPoint, PORTO
from ..market.task import Task
from .forecast import ZoneGrid
from .state import DriverState


class DemandHeatmap:
    """Zone-by-hour demand counts over a service area."""

    def __init__(self, bounding_box: BoundingBox = PORTO, rows: int = 6, cols: int = 6) -> None:
        self.grid = ZoneGrid(bounding_box, rows, cols)
        self._counts: Dict[int, np.ndarray] = {}

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def record(self, location: GeoPoint, ts: float, count: int = 1) -> None:
        """Record ``count`` ride requests at ``location`` around time ``ts``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        hour = int(ts // 3600.0)
        if hour not in self._counts:
            self._counts[hour] = np.zeros(self.grid.zone_count, dtype=float)
        self._counts[hour][self.grid.zone_of(location)] += count

    @classmethod
    def from_tasks(
        cls,
        tasks: Iterable[Task],
        bounding_box: BoundingBox = PORTO,
        rows: int = 6,
        cols: int = 6,
    ) -> "DemandHeatmap":
        """Build a heatmap from task pickup locations and deadlines."""
        heatmap = cls(bounding_box, rows, cols)
        for task in tasks:
            heatmap.record(task.source, task.start_deadline_ts)
        return heatmap

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def at(self, ts: float) -> np.ndarray:
        """Per-zone demand counts of the hour containing ``ts``."""
        counts = self._counts.get(int(ts // 3600.0))
        return np.zeros(self.grid.zone_count, dtype=float) if counts is None else counts


@dataclass
class HotspotRepositioning:
    """Move long-idle drivers towards the busiest reachable demand zone.

    Parameters
    ----------
    heatmap:
        The demand forecast: anything with a ``grid``
        (:class:`~repro.online.forecast.ZoneGrid`) and an ``at(ts)``
        returning that grid's per-zone demand vector.
    travel_model:
        Used to estimate the repositioning drive, to check the driver can
        still reach her own destination afterwards, and to charge the move.
    idle_threshold_s:
        Only drivers idle for at least this long are repositioned.
    max_drive_km:
        Never reposition further than this (empty kilometres are expensive).
    improvement_factor:
        The target zone must have at least this many times the demand of the
        driver's current zone to justify the move.
    """

    heatmap: object
    travel_model: object
    idle_threshold_s: float = 600.0
    max_drive_km: float = 5.0
    improvement_factor: float = 2.0

    def __post_init__(self) -> None:
        if self.idle_threshold_s < 0:
            raise ValueError("idle_threshold_s must be non-negative")
        if self.max_drive_km <= 0:
            raise ValueError("max_drive_km must be positive")
        if self.improvement_factor < 1.0:
            raise ValueError("improvement_factor must be >= 1")

    def hotspots(self, now_ts: float) -> Tuple[np.ndarray, List[int]]:
        """The heatmap's demand vector at ``now_ts`` and its (up to three)
        hottest positive zones, hottest first.  The sort is a stable
        ``argsort`` of the negated vector, so equal demand ranks by zone
        index and the ranking is a pure function of the field."""
        demand = self.heatmap.at(now_ts)
        order = np.argsort(-demand, kind="stable")[:3]
        return demand, [int(z) for z in order if demand[z] > 0.0]

    def suggest_batch(
        self, states: Sequence[DriverState], now_ts: float
    ) -> List[Optional[GeoPoint]]:
        """Target zone centres for a whole fleet at ``now_ts``, aligned with
        ``states``; ``None`` where a driver stays put.

        Each idle driver goes to the first of the :meth:`hotspots` that has
        ``improvement_factor`` times the demand of the driver's current zone,
        lies 0.2 km to ``max_drive_km`` away, and still leaves time to reach
        the driver's own destination before the shift ends.

        The idle fleet's drive legs (driver location -> zone centre) and home
        legs (zone centre -> driver destination) are computed with two
        ``cross_km`` batch calls — the same kernel the online candidate
        search runs on — instead of up to ``2 x idle x zones`` scalar
        estimator calls; the zone scan itself is a cheap Python loop over at
        most three precomputed columns per driver.

        The batch kernels match the scalar estimator to floating-point
        round-off, not bit for bit, so a distance landing *exactly* on a
        threshold (``max_drive_km``, the 0.2 km floor, the shift-end budget)
        could in principle decide differently from the per-driver rule
        (``tests/repositioning_oracle.py::suggest_scalar``); real fleets sit
        measurably away from those boundaries.
        """
        states = list(states)
        targets: List[Optional[GeoPoint]] = [None] * len(states)
        idle = [i for i, state in enumerate(states) if self._eligible(state, now_ts)]
        if not idle:
            return targets
        demand, zones = self.hotspots(now_ts)
        if not zones:
            return targets
        grid = self.heatmap.grid
        centres = [grid.centers[z] for z in zones]
        estimator = self.travel_model.estimator
        drive_km = estimator.cross_km(
            [states[i].location for i in idle], centres
        )  # (idle, zones)
        home_km = estimator.cross_km(
            centres, [states[i].driver.destination for i in idle]
        )  # (zones, idle)
        for row, i in enumerate(idle):
            state = states[i]
            current_demand = float(demand[grid.zone_of(state.location)])
            for column, z in enumerate(zones):
                if demand[z] < self.improvement_factor * max(1, current_demand):
                    continue
                distance = float(drive_km[row, column])
                if distance > self.max_drive_km or distance < 0.2:
                    continue
                drive_s = self.travel_model.time_for_distance_s(distance)
                home_s = self.travel_model.time_for_distance_s(float(home_km[column, row]))
                if now_ts + drive_s + home_s > state.driver.end_ts:
                    continue
                targets[i] = centres[column]
                break
        return targets

    def reposition(
        self,
        states: Iterable[DriverState],
        now_ts: float,
        on_move: Optional[Callable[[DriverState], None]] = None,
    ) -> int:
        """Move every idle driver :meth:`suggest_batch` picks; returns how
        many moved.

        The empty drive is charged to the driver's running profit and her
        location / free-at time advance to the target, exactly as an approach
        drive would.  ``on_move`` (if given) is called with every state that
        moved, so callers tracking driver positions — e.g. the candidate
        kernel's spatial index — stay in sync.  The empty-drive distances of
        all moves are computed with one batched estimator call, and every
        suggestion observes the fleet as it stood *before* this round of
        moves (the rule only reads the suggesting driver's own state, so
        that changes nothing).
        """
        state_list = list(states)
        moves = [
            (state, target)
            for state, target in zip(state_list, self.suggest_batch(state_list, now_ts))
            if target is not None
        ]
        if not moves:
            return 0
        model = self.travel_model
        distances = model.estimator.pairwise_km(
            [state.location for state, _target in moves],
            [target for _state, target in moves],
        )
        for (state, target), distance in zip(moves, distances):
            distance = float(distance)
            state.running_profit -= model.cost_for_distance(distance)
            state.location = target
            state.free_at = now_ts + model.time_for_distance_s(distance)
            if on_move is not None:
                on_move(state)
        return len(moves)

    def _eligible(self, state: DriverState, now_ts: float) -> bool:
        """Whether a driver is idle long enough to be repositioned at all."""
        if state.locked:
            return False
        driver = state.driver
        if now_ts < driver.start_ts:
            return False
        return now_ts - max(state.free_at, driver.start_ts) >= self.idle_threshold_s
