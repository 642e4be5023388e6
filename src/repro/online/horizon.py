"""Rolling-horizon lookahead for the batched dispatcher.

The batched simulator is myopic: each Hungarian window maximises that
window's marginal value and nothing else.  This module adds the
control/overlap-horizon scheme of the MPC exemplar (SNIPPETS.md snippet 1 —
``n_hours`` control window, ``n_hours_ov`` overlap horizon, multi-resolution
blocks): each dispatch step *solves* the control window (the Hungarian
assignment, exactly as before) **plus** a lookahead over the overlap horizon,
but *commits* only the control window.

The overlap horizon enters the control-window solve in expectation, because
in streaming the future orders have not published yet.  A per-zone demand
forecast (:mod:`repro.online.forecast`) is rolled out over:

* ``horizon - 1`` *fine* windows at the control resolution, each discounted
  by ``LOOKAHEAD_DECAY`` per window, and
* ``overlap`` *coarse* blocks of ``OVERLAP_FACTOR`` windows each, every
  block aggregated into one discounted term —

yielding a per-zone *pressure* field (normalised to ``[0, 1]``).  The
pressure reshapes the control-window assignment through a bias on the
Hungarian matrix, added by ``BatchedSimulator._dispatch_window`` and bounded
by ``LOOKAHEAD_WEIGHT`` times the window's mean price (pressure lies in
``[0, 1]``): pairs that drop a driver in a zone expecting demand gain, pairs
that pull supply out of one lose.  The bias only ever touches the assignment matrix — committed
profits keep the paper's exact marginal arithmetic, which is what "commit
only the control window" means here.

The *undiscounted* expected counts over the same lookahead feed a
:class:`ForecastHeatmap` driving proactive
:class:`~repro.online.repositioning.HotspotRepositioning` after each
window's dispatch, so idle drivers start moving toward forecast demand
before the orders publish.

Everything in this module is a deterministic function of (fleet, config,
observed arrival slots), so horizon dispatch inherits the bit-identical
executor-parity contracts of the myopic dispatcher (parity contract 18).
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Tuple

import numpy as np

from ..market.task import Task
from .forecast import (
    DemandForecaster,
    EwmaDemandForecaster,
    OracleDemandForecaster,
    ZoneGrid,
)
from .repositioning import HotspotRepositioning, apply_repositioning
from .state import DriverState

__all__ = ["ForecastHeatmap", "LookaheadPlanner"]

#: Per-control-window discount of future demand in the pressure field.
LOOKAHEAD_DECAY = 0.7

#: Dispatch windows per coarse overlap block.
OVERLAP_FACTOR = 4

#: Hungarian-matrix bias per unit of pressure difference, in units of the
#: window's mean price.  0.1 breaks near-ties toward forecast demand without
#: overturning clearly better present assignments (larger weights started
#: losing mean wait on the scenario suite).
LOOKAHEAD_WEIGHT = 0.1

#: Zone grid resolution of the forecast field, and the EWMA forecaster's
#: smoothing factor.
FORECAST_ROWS = 6
FORECAST_COLS = 6
FORECAST_ALPHA = 0.35

#: Proactive-repositioning knobs.  Horizon windows are typically a minute
#: long, so drivers become candidates for a forecast-driven move after five
#: idle minutes; moves are capped (empty km are paid by the driver) and
#: require the target zone to forecast 1.5x the fleet-mean zone demand.
#: Tuned on the built-in scenario suite (see ``BENCH_rolling_horizon``):
#: the 6 km radius lets drivers actually cross a city-scale zone grid —
#: at 4 km, half the profitable moves were filtered and the serve-rate
#: gains evaporated.
REPOSITION_IDLE_S = 300.0
REPOSITION_MAX_KM = 6.0
REPOSITION_IMPROVEMENT = 1.5


class ForecastHeatmap:
    """Expected-demand heatmap quacking like
    :class:`~repro.online.repositioning.DemandHeatmap`.

    :class:`HotspotRepositioning` reads only ``demand_at`` and
    ``hottest_zones``; this adapter serves both from the planner's expected
    per-zone counts.  Counts over a short lookahead are fractional (often
    well below 1 per zone), while the hotspot policy's improvement rule uses
    a ``max(1, current)`` floor calibrated for whole-hour historical counts —
    so the adapter normalises the field to the *mean positive zone count*:
    an average zone reads 1.0 and a zone reading 1.5 forecasts 1.5x the
    fleet-mean demand, which is exactly the relative rule the policy's
    ``improvement_factor`` expresses.
    """

    def __init__(self, grid: ZoneGrid) -> None:
        self.grid = grid
        self._heat = np.zeros(grid.zone_count, dtype=float)
        self._scale = 0.0

    def update(self, expected_counts: np.ndarray) -> None:
        self._heat = expected_counts
        positive = expected_counts[expected_counts > 0.0]
        self._scale = 1.0 / float(positive.mean()) if positive.size else 0.0

    # -- DemandHeatmap duck API -----------------------------------------
    def demand_at(self, location, ts: float) -> float:
        return float(self._heat[self.grid.zone_of(location)] * self._scale)

    def hottest_zones(self, ts: float, top: int = 3) -> List[Tuple[object, float]]:
        if top < 1:
            raise ValueError("top must be >= 1")
        # Stable argsort on the negated field: ties break on zone index, so
        # the ranking is a pure function of the field.
        order = np.argsort(-self._heat, kind="stable")
        zones: List[Tuple[object, float]] = []
        for z in order[:top]:
            if self._heat[z] <= 0.0:
                break
            zones.append((self.grid.centers[int(z)], float(self._heat[z] * self._scale)))
        return zones


class LookaheadPlanner:
    """Holds the forecast state of one rolling-horizon dispatcher.

    One planner per :class:`~repro.online.batch.BatchedSimulator` run; the
    simulator calls :meth:`observe_window` once per dispatched window (in
    slot order), then biases the window's Hungarian matrix by
    :meth:`pressure_at` and finally repositions idle drivers via
    :meth:`reposition`.
    """

    def __init__(
        self,
        forecaster: DemandForecaster,
        travel_model,
        *,
        horizon: int,
        overlap: int,
    ) -> None:
        self.grid = forecaster.grid
        self.forecaster = forecaster
        self.horizon = horizon
        self.overlap = overlap
        self._travel_model = travel_model
        self._heatmap = ForecastHeatmap(self.grid)
        self._policy = HotspotRepositioning(
            heatmap=self._heatmap,
            travel_model=travel_model,
            idle_threshold_s=REPOSITION_IDLE_S,
            max_drive_km=REPOSITION_MAX_KM,
            improvement_factor=REPOSITION_IMPROVEMENT,
        )
        self._pressure = np.zeros(self.grid.zone_count, dtype=float)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def build(cls, instance, config) -> Optional["LookaheadPlanner"]:
        """Planner for one simulator run, or ``None`` when lookahead cannot
        apply (no fleet to derive a zone grid from).

        The grid derives from the *fleet* (driver sources and destinations),
        which is fully known at ``stream_begin`` in both the replay and the
        streaming paths — so both paths hold the identical grid, a
        precondition of the stream == replay contract under horizon dispatch.
        """
        drivers = instance.drivers
        points = [d.source for d in drivers] + [d.destination for d in drivers]
        grid = ZoneGrid.from_points(points, FORECAST_ROWS, FORECAST_COLS)
        if grid is None:
            return None
        if config.forecast == "oracle":
            forecaster: DemandForecaster = OracleDemandForecaster(
                grid, instance.tasks, config.window_s
            )
        else:
            forecaster = EwmaDemandForecaster(grid, alpha=FORECAST_ALPHA)
        return cls(
            forecaster,
            instance.cost_model.travel_model,
            horizon=config.horizon,
            overlap=config.overlap,
        )

    # ------------------------------------------------------------------
    # per-window lifecycle
    # ------------------------------------------------------------------
    def observe_window(self, slot: int, tasks: Iterable[Task]) -> None:
        """Feed one dispatched window's arrivals and refresh the lookahead."""
        self.forecaster.observe(slot, list(tasks))
        self._refresh(slot)

    def _refresh(self, slot: int) -> None:
        """Roll the forecast out over the control + overlap horizon.

        Fine windows (control resolution) are discounted per window; each
        coarse overlap block aggregates ``OVERLAP_FACTOR`` windows into one
        term discounted at the block boundary — the multi-resolution scheme
        of the MPC exemplar, in expectation.
        """
        pressure = np.zeros(self.grid.zone_count, dtype=float)
        heat = np.zeros(self.grid.zone_count, dtype=float)
        for offset in range(1, self.horizon):
            counts = self.forecaster.predict(slot + offset)
            pressure += (LOOKAHEAD_DECAY ** offset) * counts
            heat += counts
        for block in range(self.overlap):
            start = self.horizon + block * OVERLAP_FACTOR
            block_counts = np.zeros(self.grid.zone_count, dtype=float)
            for i in range(OVERLAP_FACTOR):
                block_counts += self.forecaster.predict(slot + start + i)
            pressure += (LOOKAHEAD_DECAY ** start) * block_counts
            heat += block_counts
        peak = float(pressure.max())
        self._pressure = pressure / peak if peak > 0.0 else pressure
        self._heatmap.update(heat)

    # ------------------------------------------------------------------
    # pricing and repositioning
    # ------------------------------------------------------------------
    def pressure_at(self, location) -> float:
        """Normalised (``[0, 1]``) lookahead pressure of a location's zone."""
        return float(self._pressure[self.grid.zone_of(location)])

    def reposition(
        self,
        states: Iterable[DriverState],
        now_ts: float,
        on_move: Optional[Callable[[DriverState], None]] = None,
    ) -> int:
        """Proactively move idle drivers toward forecast demand.  Returns the
        number of drivers moved."""
        return apply_repositioning(
            self._policy, states, now_ts, self._travel_model, on_move=on_move
        )
