"""The per-driver repositioning rule: the reference side of parity contract 3.

:meth:`repro.online.repositioning.HotspotRepositioning.suggest_batch` decides
for the whole idle fleet with two ``cross_km`` calls.  This is the scalar
rule it replaced: one driver at a time, two scalar estimator calls per
(driver, zone).  Both read the policy's one ranking
(:meth:`~repro.online.repositioning.HotspotRepositioning.hotspots`), so the
contract compares only the batched distance rule against the scalar one.
The batched rule must make the same suggestion for every driver.  No
``src/`` code calls it.
"""

from __future__ import annotations

from typing import Optional

from repro.geo import GeoPoint
from repro.online.repositioning import HotspotRepositioning
from repro.online.state import DriverState


def suggest_scalar(
    policy: HotspotRepositioning, state: DriverState, now_ts: float
) -> Optional[GeoPoint]:
    """``policy.suggest_batch([state], now_ts)[0]``, computed by the scalar
    rule."""
    if not policy._eligible(state, now_ts):
        return None
    driver = state.driver
    grid = policy.heatmap.grid
    demand, zones = policy.hotspots(now_ts)
    current_demand = float(demand[grid.zone_of(state.location)])
    for z in zones:
        target = grid.centers[z]
        if demand[z] < policy.improvement_factor * max(1, current_demand):
            continue
        drive_km = policy.travel_model.distance_km(state.location, target)
        if drive_km > policy.max_drive_km or drive_km < 0.2:
            continue
        drive_s = policy.travel_model.time_for_distance_s(drive_km)
        home_s = policy.travel_model.travel_time_s(target, driver.destination)
        if now_ts + drive_s + home_s > driver.end_ts:
            continue
        return target
    return None
