"""JSON serialization of market instances, solutions and outcomes.

Experiments are cheaper to debug and share when the exact instance that
produced a number can be written to disk and reloaded bit-for-bit.  The
format is plain JSON with an explicit ``format`` / ``version`` header:

* drivers and tasks serialise all of their model attributes;
* the travel model serialises its estimator type, circuity, speed and cost,
  plus its time profile when that profile is not flat;
* solutions/outcomes serialise the assignment, per-driver profits and the
  producing algorithm, referencing tasks by index within the instance.

Round-tripping an instance rebuilds the task maps lazily as usual, so a
loaded instance behaves exactly like a freshly constructed one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Dict, Mapping, Union

from ..core.objectives import Objective
from ..core.solution import DriverPlan, MarketSolution
from ..geo import (
    EquirectangularEstimator,
    GeoPoint,
    HaversineEstimator,
    ManhattanEstimator,
    TravelModel,
)
from ..market.cost import MarketCostModel
from ..market.driver import Driver
from ..market.instance import MarketInstance
from ..market.task import Task
from ..online.outcome import OnlineDriverRecord, OnlineOutcome

FORMAT_NAME = "repro-market"
FORMAT_VERSION = 1

_ESTIMATOR_NAMES = {
    HaversineEstimator: "haversine",
    EquirectangularEstimator: "equirectangular",
    ManhattanEstimator: "manhattan",
}


class SerializationError(ValueError):
    """Raised when a document cannot be decoded."""


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def point_to_dict(point: GeoPoint) -> Dict[str, float]:
    return {"lat": point.lat, "lon": point.lon}


def point_from_dict(data: Mapping[str, Any]) -> GeoPoint:
    try:
        return GeoPoint(float(data["lat"]), float(data["lon"]))
    except KeyError as exc:
        raise SerializationError(f"point is missing field {exc}") from exc


def driver_to_dict(driver: Driver) -> Dict[str, Any]:
    return {
        "driver_id": driver.driver_id,
        "source": point_to_dict(driver.source),
        "destination": point_to_dict(driver.destination),
        "start_ts": driver.start_ts,
        "end_ts": driver.end_ts,
    }


def driver_from_dict(data: Mapping[str, Any]) -> Driver:
    try:
        return Driver(
            driver_id=str(data["driver_id"]),
            source=point_from_dict(data["source"]),
            destination=point_from_dict(data["destination"]),
            start_ts=float(data["start_ts"]),
            end_ts=float(data["end_ts"]),
        )
    except KeyError as exc:
        raise SerializationError(f"driver is missing field {exc}") from exc


def task_to_dict(task: Task) -> Dict[str, Any]:
    return {
        "task_id": task.task_id,
        "publish_ts": task.publish_ts,
        "source": point_to_dict(task.source),
        "destination": point_to_dict(task.destination),
        "start_deadline_ts": task.start_deadline_ts,
        "end_deadline_ts": task.end_deadline_ts,
        "price": task.price,
        "wtp": task.wtp,
        "distance_km": task.distance_km,
    }


def task_from_dict(data: Mapping[str, Any]) -> Task:
    try:
        return Task(
            task_id=str(data["task_id"]),
            publish_ts=float(data["publish_ts"]),
            source=point_from_dict(data["source"]),
            destination=point_from_dict(data["destination"]),
            start_deadline_ts=float(data["start_deadline_ts"]),
            end_deadline_ts=float(data["end_deadline_ts"]),
            price=float(data["price"]),
            wtp=None if data.get("wtp") is None else float(data["wtp"]),
            distance_km=None if data.get("distance_km") is None else float(data["distance_km"]),
        )
    except KeyError as exc:
        raise SerializationError(f"task is missing field {exc}") from exc


def travel_model_to_dict(model: TravelModel) -> Dict[str, Any]:
    estimator_name = _ESTIMATOR_NAMES.get(type(model.estimator))
    if estimator_name is None:
        raise SerializationError(
            f"cannot serialise custom distance estimator {type(model.estimator).__name__}"
        )
    data: Dict[str, Any] = {
        "estimator": estimator_name,
        "circuity": float(getattr(model.estimator, "circuity", 1.0)),
        "speed_kmh": model.speed_kmh,
        "cost_per_km": model.cost_per_km,
    }
    if not model.is_flat:
        data.update(
            window_s=model.window_s,
            speed_factors=list(model.speed_factors),
            cost_factors=list(model.cost_factors),
            origin_ts=model.origin_ts,
        )
    return data


def travel_model_from_dict(data: Mapping[str, Any]) -> TravelModel:
    name = data.get("estimator", "haversine")
    circuity = float(data.get("circuity", 1.3))
    if name == "haversine":
        estimator = HaversineEstimator(circuity=circuity)
    elif name == "equirectangular":
        estimator = EquirectangularEstimator(circuity=circuity)
    elif name == "manhattan":
        estimator = ManhattanEstimator()
    else:
        raise SerializationError(f"unknown estimator {name!r}")
    return TravelModel(
        estimator,
        speed_kmh=float(data.get("speed_kmh", 30.0)),
        cost_per_km=float(data.get("cost_per_km", 0.12)),
        window_s=float(data.get("window_s", 3600.0)),
        speed_factors=tuple(data.get("speed_factors", (1.0,))),
        cost_factors=tuple(data.get("cost_factors", (1.0,))),
        origin_ts=float(data.get("origin_ts", 0.0)),
    )


# ----------------------------------------------------------------------
# instances
# ----------------------------------------------------------------------
def instance_to_dict(instance: MarketInstance) -> Dict[str, Any]:
    """Serialise a market instance to a JSON-compatible dictionary."""
    return {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "travel_model": travel_model_to_dict(instance.cost_model.travel_model),
        "drivers": [driver_to_dict(d) for d in instance.drivers],
        "tasks": [task_to_dict(t) for t in instance.tasks],
    }


def instance_from_dict(data: Mapping[str, Any]) -> MarketInstance:
    """Rebuild a market instance from :func:`instance_to_dict` output."""
    if data.get("format") != FORMAT_NAME:
        raise SerializationError(f"not a {FORMAT_NAME} document")
    if int(data.get("version", -1)) != FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {data.get('version')!r}")
    travel_model = travel_model_from_dict(data.get("travel_model", {}))
    drivers = [driver_from_dict(d) for d in data.get("drivers", [])]
    tasks = [task_from_dict(t) for t in data.get("tasks", [])]
    return MarketInstance.create(
        drivers=drivers, tasks=tasks, cost_model=MarketCostModel(travel_model)
    )


def save_instance(instance: MarketInstance, path: Union[str, Path]) -> None:
    """Write an instance to a JSON file."""
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2), encoding="utf-8")


def load_instance(path: Union[str, Path]) -> MarketInstance:
    """Read an instance from a JSON file."""
    return instance_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# solutions / outcomes
# ----------------------------------------------------------------------
def solution_to_dict(solution: MarketSolution, algorithm: str = "unknown") -> Dict[str, Any]:
    """Serialise an (offline) solution's assignment and per-driver profits."""
    return {
        "format": f"{FORMAT_NAME}-solution",
        "version": FORMAT_VERSION,
        "algorithm": algorithm,
        "objective": solution.objective.value,
        "plans": [
            {
                "driver_id": plan.driver_id,
                "task_indices": list(plan.task_indices),
                "profit": plan.profit,
            }
            for plan in solution.plans
        ],
    }


def solution_from_dict(data: Mapping[str, Any], instance: MarketInstance) -> MarketSolution:
    """Rebuild a solution against an already-loaded instance."""
    if data.get("format") != f"{FORMAT_NAME}-solution":
        raise SerializationError("not a solution document")
    objective = Objective(data.get("objective", Objective.DRIVERS_PROFIT.value))
    plans = tuple(
        DriverPlan(
            driver_id=str(entry["driver_id"]),
            task_indices=tuple(int(m) for m in entry["task_indices"]),
            profit=float(entry["profit"]),
        )
        for entry in data.get("plans", [])
    )
    return MarketSolution(instance=instance, plans=plans, objective=objective)


def outcome_to_dict(outcome: OnlineOutcome) -> Dict[str, Any]:
    """Serialise an online outcome (assignment, profits, rejections)."""
    return {
        "format": f"{FORMAT_NAME}-outcome",
        "version": FORMAT_VERSION,
        "dispatcher": outcome.dispatcher_name,
        "records": [
            {
                "driver_id": record.driver_id,
                "task_indices": list(record.task_indices),
                "profit": record.profit,
                # Untracked commits carry NaN in memory; ship null so the
                # document stays valid strict JSON.
                "arrival_times": [
                    None if math.isnan(ts) else ts for ts in record.arrival_times
                ],
            }
            for record in outcome.records
        ],
        "rejected_tasks": list(outcome.rejected_tasks),
    }


def outcome_from_dict(data: Mapping[str, Any], instance: MarketInstance) -> OnlineOutcome:
    """Rebuild an online outcome against an already-loaded instance."""
    if data.get("format") != f"{FORMAT_NAME}-outcome":
        raise SerializationError("not an outcome document")
    records = tuple(
        OnlineDriverRecord(
            driver_id=str(entry["driver_id"]),
            task_indices=tuple(int(m) for m in entry["task_indices"]),
            profit=float(entry["profit"]),
            # Documents written before wait tracking have no arrival_times;
            # default to untracked rather than failing the load.
            arrival_times=tuple(
                math.nan if ts is None else float(ts)
                for ts in entry.get("arrival_times", ())
            ),
        )
        for entry in data.get("records", [])
    )
    return OnlineOutcome(
        instance=instance,
        records=records,
        rejected_tasks=tuple(int(m) for m in data.get("rejected_tasks", [])),
        dispatcher_name=str(data.get("dispatcher", "unknown")),
    )


def save_solution(
    solution: MarketSolution, path: Union[str, Path], algorithm: str = "unknown"
) -> None:
    Path(path).write_text(
        json.dumps(solution_to_dict(solution, algorithm=algorithm), indent=2), encoding="utf-8"
    )


def load_solution(path: Union[str, Path], instance: MarketInstance) -> MarketSolution:
    return solution_from_dict(json.loads(Path(path).read_text(encoding="utf-8")), instance)
