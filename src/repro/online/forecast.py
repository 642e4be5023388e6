"""Per-zone demand forecasting for rolling-horizon dispatch.

The rolling-horizon dispatcher (:mod:`repro.online.horizon`) needs an
estimate of *future* per-zone demand: how many ride requests will publish in
each zone of the service area over the next few dispatch windows.  Two
forecasters share one small protocol:

* :class:`EwmaDemandForecaster` — an exponentially-weighted moving average of
  the per-zone arrival counts observed so far.  Cheap, causal (it only ever
  sees windows that already published, so it works unchanged in true
  streaming), and exactly equal to the oracle on stationary demand.
* :class:`OracleDemandForecaster` — reads the true future counts off a known
  task table.  Scenario-compiled timelines know every arrival in advance, so
  tests use the oracle as ground truth for the EWMA and the horizon logic;
  it is unavailable in true streaming, where the future is unknown.

Both forecasters are deterministic functions of their inputs (the zone grid,
the observed/known tasks and the slot sequence), which is what lets horizon
dispatch keep the bit-identical executor-parity contracts: every worker
replays the same observations in the same order and therefore holds the same
forecast state.

Zoning is a :class:`ZoneGrid` — a fixed ``rows x cols`` split of the fleet's
padded bounding box.  The fleet is known at ``stream_begin`` in both the
replay and the streaming paths, so both derive the *same* grid before any
task arrives (deriving it from tasks would make the grid depend on how much
of the future has been seen, breaking stream == replay).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..geo import BoundingBox, GeoPoint, bounding_box_of
from ..market.task import Task

__all__ = [
    "ZoneGrid",
    "DemandForecaster",
    "EwmaDemandForecaster",
    "OracleDemandForecaster",
    "publish_slot",
    "publish_slot_of",
]


def publish_slot(publish_ts: float, first_publish: float, window_s: float) -> int:
    """The dispatch-window slot of a publish time (negative before the
    anchor).  The one slotting rule — replay windows, stream watermark,
    arrival-batch groupers, the gateway's ``WindowBatcher`` and the
    forecasters all call it; the stream == replay guarantee rests on that.
    """
    return int((publish_ts - first_publish) // window_s)


def publish_slot_of(publish_ts: float, first_publish: float, window_s: float) -> int:
    """:func:`publish_slot` clamped at slot 0, for the forecasters."""
    return max(0, publish_slot(publish_ts, first_publish, window_s))


class ZoneGrid:
    """A fixed ``rows x cols`` zoning of a service area.

    Thin wrapper over :meth:`BoundingBox.cell_index` that numbers zones
    row-major and pre-computes every zone centre.  Out-of-box points clamp to
    the nearest edge cell (the underlying ``cell_index`` already clamps), so
    the grid is total over all coordinates.
    """

    def __init__(self, bounding_box: BoundingBox, rows: int = 6, cols: int = 6) -> None:
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be >= 1")
        self.bounding_box = bounding_box
        self.rows = rows
        self.cols = cols
        self.centers: Tuple[GeoPoint, ...] = tuple(
            box.center for box in bounding_box.split(rows, cols)
        )

    @property
    def zone_count(self) -> int:
        return self.rows * self.cols

    def zone_of(self, location: GeoPoint) -> int:
        row, col = self.bounding_box.cell_index(location, self.rows, self.cols)
        return row * self.cols + col

    def counts_of(self, tasks: Iterable[Task]) -> np.ndarray:
        """Per-zone pickup counts of a task collection."""
        counts = np.zeros(self.zone_count, dtype=float)
        for task in tasks:
            counts[self.zone_of(task.source)] += 1.0
        return counts

    @classmethod
    def from_points(
        cls, points: Sequence[GeoPoint], rows: int = 6, cols: int = 6
    ) -> Optional["ZoneGrid"]:
        """Grid over the padded bounding box of ``points`` (``None`` when
        there are no points to bound)."""
        box = bounding_box_of(points)
        if box is None:
            return None
        return cls(box, rows, cols)


class DemandForecaster:
    """Protocol: observe each dispatch window's arrivals, predict future ones.

    ``observe(slot, tasks)`` must be called once per *published* dispatch
    window, in slot order; ``predict(slot)`` returns the expected per-zone
    pickup counts (a non-negative float vector of ``zone_count`` entries) for
    a future window ``slot``.
    """

    grid: ZoneGrid

    def observe(self, slot: int, tasks: Sequence[Task]) -> None:
        raise NotImplementedError

    def predict(self, slot: int) -> np.ndarray:
        raise NotImplementedError


class EwmaDemandForecaster(DemandForecaster):
    """Exponentially-weighted moving average of per-zone window counts.

    The state is initialised to the *first* observed window's counts rather
    than zeros, so on stationary demand (identical counts every window) the
    forecast equals the true per-window counts from the first prediction on —
    the property the test battery pins against the oracle.  Updates are
    convex combinations of non-negative vectors, so the forecast can never go
    negative.
    """

    def __init__(self, grid: ZoneGrid, alpha: float = 0.35) -> None:
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self.grid = grid
        self.alpha = alpha
        self._state: Optional[np.ndarray] = None
        self._last_slot: Optional[int] = None

    def observe(self, slot: int, tasks: Sequence[Task]) -> None:
        counts = self.grid.counts_of(tasks)
        if self._state is None:
            self._state = counts
        else:
            # Windows the watermark skipped (no arrivals published) count as
            # zero-demand observations, one per skipped slot, so the state
            # decays identically whether a quiet stretch was streamed or
            # replayed.
            gap = 0 if self._last_slot is None else max(0, slot - self._last_slot - 1)
            decay = (1.0 - self.alpha) ** gap
            self._state = self._state * decay
            self._state = (1.0 - self.alpha) * self._state + self.alpha * counts
        self._last_slot = slot

    def predict(self, slot: int) -> np.ndarray:
        if self._state is None:
            return np.zeros(self.grid.zone_count, dtype=float)
        return self._state


class OracleDemandForecaster(DemandForecaster):
    """Ground-truth forecaster over a fully known task table.

    Buckets every publishable task of a *compiled* (replay) instance into its
    dispatch-window slot up front; ``predict`` then reads the true counts.
    Only meaningful when the future is known — the streaming dispatcher
    rejects it at ``stream_begin``.
    """

    def __init__(self, grid: ZoneGrid, tasks: Sequence[Task], window_s: float) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        self.grid = grid
        self.window_s = window_s
        publishable = [t for t in tasks if t.is_publishable]
        self._by_slot: Dict[int, np.ndarray] = {}
        if publishable:
            first_publish = min(t.publish_ts for t in publishable)
            buckets: Dict[int, List[Task]] = {}
            for task in publishable:
                slot = publish_slot_of(task.publish_ts, first_publish, window_s)
                buckets.setdefault(slot, []).append(task)
            self._by_slot = {
                slot: grid.counts_of(batch) for slot, batch in buckets.items()
            }

    def observe(self, slot: int, tasks: Sequence[Task]) -> None:
        # The oracle already knows the future; observations are no-ops.
        return None

    def predict(self, slot: int) -> np.ndarray:
        counts = self._by_slot.get(slot)
        if counts is None:
            return np.zeros(self.grid.zone_count, dtype=float)
        return counts
