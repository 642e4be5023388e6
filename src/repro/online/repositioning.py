"""Idle-driver repositioning.

Section VI-C of the paper concludes that "an effective matching market
designer should make the market dense enough to ensure a high service rate".
Dispatch alone cannot do that when idle drivers sit where their last
drop-off happened to be; production platforms therefore *reposition* idle
drivers towards predicted demand.  This module adds that capability as an
optional plug-in for the online simulator:

* :class:`DemandHeatmap` — a zone-by-hour count of historical ride requests
  (built from tasks or trips), answering "where is demand expected around
  time t?".
* :class:`HotspotRepositioning` — moves a driver who has been idle for a
  while towards the busiest reachable zone centre, provided she can still
  make it to her own destination in time afterwards.  The empty drive is paid
  for by the driver, so repositioning only pays off when it wins her
  subsequent rides — exactly the trade-off the ablation benchmark measures.
* :class:`NoRepositioning` — the do-nothing baseline.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from ..geo import BoundingBox, GeoPoint, PORTO
from ..market.task import Task
from ..trace.records import TripRecord
from .state import DriverState


class DemandHeatmap:
    """Zone-by-hour demand counts over a service area."""

    def __init__(self, bounding_box: BoundingBox = PORTO, rows: int = 6, cols: int = 6) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be >= 1")
        self.bounding_box = bounding_box
        self.rows = rows
        self.cols = cols
        self._counts: Dict[Tuple[int, int, int], int] = {}

    # ------------------------------------------------------------------
    # building
    # ------------------------------------------------------------------
    def record(self, location: GeoPoint, ts: float, count: int = 1) -> None:
        """Record ``count`` ride requests at ``location`` around time ``ts``."""
        if count < 0:
            raise ValueError("count must be non-negative")
        key = self._key(location, ts)
        self._counts[key] = self._counts.get(key, 0) + count

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

    @classmethod
    def from_trips(
        cls,
        trips: Iterable[TripRecord],
        bounding_box: BoundingBox = PORTO,
        rows: int = 6,
        cols: int = 6,
    ) -> "DemandHeatmap":
        """Build a heatmap from historical trips (yesterday's demand as the
        forecast for today, the simplest production-grade predictor)."""
        heatmap = cls(bounding_box, rows, cols)
        for trip in trips:
            heatmap.record(trip.origin, trip.start_ts)
        return heatmap

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def demand_at(self, location: GeoPoint, ts: float) -> int:
        """Demand count of the zone containing ``location`` in the hour of ``ts``."""
        return self._counts.get(self._key(location, ts), 0)

    def hottest_zones(self, ts: float, top: int = 3) -> List[Tuple[GeoPoint, int]]:
        """The ``top`` busiest zone centres for the hour containing ``ts``."""
        if top < 1:
            raise ValueError("top must be >= 1")
        hour = self._hour(ts)
        cells = [
            ((row, col), count)
            for (row, col, h), count in self._counts.items()
            if h == hour and count > 0
        ]
        cells.sort(key=lambda item: -item[1])
        centres: List[Tuple[GeoPoint, int]] = []
        zone_boxes = self.bounding_box.split(self.rows, self.cols)
        for (row, col), count in cells[:top]:
            centres.append((zone_boxes[row * self.cols + col].center, count))
        return centres

    def total_demand(self) -> int:
        return sum(self._counts.values())

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _hour(self, ts: float) -> int:
        return int(ts // 3600.0)

    def _key(self, location: GeoPoint, ts: float) -> Tuple[int, int, int]:
        row, col = self.bounding_box.cell_index(location, self.rows, self.cols)
        return (row, col, self._hour(ts))


@dataclass(frozen=True, slots=True)
class RepositioningMove:
    """A suggested empty drive for an idle driver."""

    target: GeoPoint
    depart_ts: float


class RepositioningPolicy(abc.ABC):
    """Decides whether (and where) idle drivers should reposition."""

    @abc.abstractmethod
    def suggest_batch(
        self, states: Sequence[DriverState], now_ts: float
    ) -> List[Optional[RepositioningMove]]:
        """Moves for a whole fleet at time ``now_ts``, aligned with
        ``states``; ``None`` where a driver stays put."""


@dataclass
class NoRepositioning(RepositioningPolicy):
    """Baseline: idle drivers wait where they are."""

    def suggest_batch(
        self, states: Sequence[DriverState], now_ts: float
    ) -> List[Optional[RepositioningMove]]:
        return [None] * len(states)


@dataclass
class HotspotRepositioning(RepositioningPolicy):
    """Move long-idle drivers towards the busiest reachable demand zone.

    Parameters
    ----------
    heatmap:
        The demand forecast.
    travel_model:
        Used to estimate the repositioning drive and to check the driver can
        still reach her own destination afterwards.
    idle_threshold_s:
        Only drivers idle for at least this long are repositioned.
    max_drive_km:
        Never reposition further than this (empty kilometres are expensive).
    improvement_factor:
        The target zone must have at least this many times the demand of the
        driver's current zone to justify the move.
    """

    heatmap: DemandHeatmap
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

    def suggest_batch(
        self, states: Sequence[DriverState], now_ts: float
    ) -> List[Optional[RepositioningMove]]:
        """Each idle driver goes to the first of the hour's three hottest
        zones that has ``improvement_factor`` times the demand of the
        driver's current zone, lies 0.2 km to ``max_drive_km`` away, and
        still leaves time to reach the driver's own destination before the
        shift ends.

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
        estimator = self.travel_model.estimator
        moves: List[Optional[RepositioningMove]] = [None] * len(states)
        idle = [i for i, state in enumerate(states) if self._eligible(state, now_ts)]
        if not idle:
            return moves
        zones = self.heatmap.hottest_zones(now_ts, top=3)
        if not zones:
            return moves
        centres = [target for target, _demand in zones]
        drive_km = estimator.cross_km(
            [states[i].location for i in idle], centres
        )  # (idle, zones)
        home_km = estimator.cross_km(
            centres, [states[i].driver.destination for i in idle]
        )  # (zones, idle)
        for row, i in enumerate(idle):
            state = states[i]
            driver = state.driver
            current_demand = self.heatmap.demand_at(state.location, now_ts)
            for z, (target, demand) in enumerate(zones):
                if demand < self.improvement_factor * max(1, current_demand):
                    continue
                distance = float(drive_km[row, z])
                if distance > self.max_drive_km or distance < 0.2:
                    continue
                drive_s = self.travel_model.time_for_distance_s(distance)
                home_s = self.travel_model.time_for_distance_s(float(home_km[z, row]))
                if now_ts + drive_s + home_s > driver.end_ts:
                    continue
                moves[i] = RepositioningMove(target=target, depart_ts=now_ts)
                break
        return moves

    def _eligible(self, state: DriverState, now_ts: float) -> bool:
        """Whether a driver is idle long enough to be repositioned at all."""
        if state.locked:
            return False
        driver = state.driver
        if now_ts < driver.start_ts:
            return False
        return now_ts - max(state.free_at, driver.start_ts) >= self.idle_threshold_s


def apply_repositioning(
    policy: RepositioningPolicy,
    states: Iterable[DriverState],
    now_ts: float,
    travel_model,
    on_move: Optional[Callable[[DriverState], None]] = None,
) -> int:
    """Apply a policy to every idle driver; returns how many moved.

    The empty drive is charged to the driver's running profit and her
    location / free-at time advance to the target, exactly as an approach
    drive would.  ``on_move`` (if given) is called with every state that
    moved, so callers tracking driver positions — e.g. the candidate
    kernel's spatial index — stay in sync.  Suggestions come from the
    policy's ``suggest_batch`` and the empty-drive distances of all accepted
    moves are computed with one batched estimator call, which means every suggestion observes the fleet as it stood
    *before* this round of moves (the built-in policies only read the
    suggesting driver's own state, so they are unaffected).
    """
    state_list = list(states)
    suggestions = policy.suggest_batch(state_list, now_ts)
    moves: List[Tuple[DriverState, RepositioningMove]] = [
        (state, move) for state, move in zip(state_list, suggestions) if move is not None
    ]
    if not moves:
        return 0
    distances = travel_model.estimator.pairwise_km(
        [state.location for state, _move in moves],
        [move.target for _state, move in moves],
    )
    for (state, move), distance in zip(moves, distances):
        distance = float(distance)
        state.running_profit -= travel_model.cost_for_distance(distance)
        state.location = move.target
        state.free_at = move.depart_ts + travel_model.time_for_distance_s(distance)
        if on_move is not None:
            on_move(state)
    return len(moves)
