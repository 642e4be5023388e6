"""JSON serialization of market instances and solutions.

Experiments are cheaper to debug and share when the exact instance that
produced a number can be written to disk and reloaded bit-for-bit.  The
format is plain JSON with an explicit ``format`` / ``version`` header:

* drivers and tasks serialise all of their model attributes;
* the travel model serialises its estimator type, circuity, speed and cost,
  plus its time profile when that profile is not flat;
* solutions serialise every plan (task indices within the instance, profit
  and, for the online simulators, pickup arrival times), the rejected
  orders and the producing algorithm.

A malformed document — a missing or mistyped field, or values the model
refuses — raises :class:`SerializationError` naming what is wrong.

Round-tripping an instance rebuilds the task maps lazily as usual, so a
loaded instance behaves exactly like a freshly constructed one.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Any, Callable, Dict, Mapping, Optional, Tuple, Union

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
# decoding helpers
# ----------------------------------------------------------------------
_REQUIRED = object()


def _field(
    data: Any, kind: str, name: str, convert: Callable[[Any], Any], default: Any = _REQUIRED
) -> Any:
    """``convert(data[name])`` — or of ``default`` when the field is absent
    and has one — with a missing or malformed field raised as a
    :class:`SerializationError` naming it."""
    if not isinstance(data, Mapping):
        raise SerializationError(f"{kind} must be an object, not {type(data).__name__}")
    if name not in data and default is _REQUIRED:
        raise SerializationError(f"{kind} is missing field {name!r}")
    try:
        return convert(data.get(name, default))
    except (TypeError, ValueError) as exc:
        raise SerializationError(f"{kind} field {name!r}: {exc}") from exc


def _built(kind: str, factory: Callable[..., Any], **fields: Any) -> Any:
    """``factory(**fields)``, with the model's own validation error (say, a
    task whose deadlines are out of order) raised as a
    :class:`SerializationError`."""
    try:
        return factory(**fields)
    except ValueError as exc:
        raise SerializationError(f"{kind}: {exc}") from exc


def _optional_float(value: Any) -> Optional[float]:
    return None if value is None else float(value)


def _floats(value: Any) -> Tuple[float, ...]:
    return tuple(float(x) for x in value)


# ----------------------------------------------------------------------
# primitives
# ----------------------------------------------------------------------
def point_to_dict(point: GeoPoint) -> Dict[str, float]:
    return {"lat": point.lat, "lon": point.lon}


def point_from_dict(data: Mapping[str, Any]) -> GeoPoint:
    return _built(
        "point",
        GeoPoint,
        lat=_field(data, "point", "lat", float),
        lon=_field(data, "point", "lon", float),
    )


def driver_to_dict(driver: Driver) -> Dict[str, Any]:
    return {
        "driver_id": driver.driver_id,
        "source": point_to_dict(driver.source),
        "destination": point_to_dict(driver.destination),
        "start_ts": driver.start_ts,
        "end_ts": driver.end_ts,
    }


def driver_from_dict(data: Mapping[str, Any]) -> Driver:
    return _built(
        "driver",
        Driver,
        driver_id=_field(data, "driver", "driver_id", str),
        source=_field(data, "driver", "source", point_from_dict),
        destination=_field(data, "driver", "destination", point_from_dict),
        start_ts=_field(data, "driver", "start_ts", float),
        end_ts=_field(data, "driver", "end_ts", float),
    )


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
    return _built(
        "task",
        Task,
        task_id=_field(data, "task", "task_id", str),
        publish_ts=_field(data, "task", "publish_ts", float),
        source=_field(data, "task", "source", point_from_dict),
        destination=_field(data, "task", "destination", point_from_dict),
        start_deadline_ts=_field(data, "task", "start_deadline_ts", float),
        end_deadline_ts=_field(data, "task", "end_deadline_ts", float),
        price=_field(data, "task", "price", float),
        wtp=_field(data, "task", "wtp", _optional_float, None),
        distance_km=_field(data, "task", "distance_km", _optional_float, None),
    )


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
    kind = "travel model"
    name = _field(data, kind, "estimator", str, "haversine")
    circuity = _field(data, kind, "circuity", float, 1.3)
    if name == "haversine":
        estimator = _built(kind, HaversineEstimator, circuity=circuity)
    elif name == "equirectangular":
        estimator = _built(kind, EquirectangularEstimator, circuity=circuity)
    elif name == "manhattan":
        estimator = ManhattanEstimator()
    else:
        raise SerializationError(f"unknown estimator {name!r}")
    return _built(
        kind,
        TravelModel,
        estimator=estimator,
        speed_kmh=_field(data, kind, "speed_kmh", float, 30.0),
        cost_per_km=_field(data, kind, "cost_per_km", float, 0.12),
        window_s=_field(data, kind, "window_s", float, 3600.0),
        speed_factors=_field(data, kind, "speed_factors", _floats, (1.0,)),
        cost_factors=_field(data, kind, "cost_factors", _floats, (1.0,)),
        origin_ts=_field(data, kind, "origin_ts", float, 0.0),
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
    kind = "market"
    if _field(data, kind, "format", str, None) != FORMAT_NAME:
        raise SerializationError(f"not a {FORMAT_NAME} document")
    if _field(data, kind, "version", int, -1) != FORMAT_VERSION:
        raise SerializationError(f"unsupported format version {data.get('version')!r}")
    travel_model = _field(data, kind, "travel_model", travel_model_from_dict, {})
    drivers = _field(data, kind, "drivers", lambda ds: [driver_from_dict(d) for d in ds], [])
    tasks = _field(data, kind, "tasks", lambda ts: [task_from_dict(t) for t in ts], [])
    return _built(
        kind,
        MarketInstance.create,
        drivers=drivers,
        tasks=tasks,
        cost_model=MarketCostModel(travel_model),
    )


def save_instance(instance: MarketInstance, path: Union[str, Path]) -> None:
    """Write an instance to a JSON file."""
    Path(path).write_text(json.dumps(instance_to_dict(instance), indent=2), encoding="utf-8")


def load_instance(path: Union[str, Path]) -> MarketInstance:
    """Read an instance from a JSON file."""
    return instance_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


# ----------------------------------------------------------------------
# solutions
# ----------------------------------------------------------------------
def solution_to_dict(solution: MarketSolution, algorithm: str = "unknown") -> Dict[str, Any]:
    """Serialise a solution: its plans (assignment, per-driver profits and,
    for the online simulators, pickup arrivals), its rejected orders and
    the producing algorithm."""
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
                # Untracked commits carry NaN in memory; ship null so the
                # document stays valid strict JSON.
                "arrival_times": [
                    None if math.isnan(ts) else ts for ts in plan.arrival_times
                ],
            }
            for plan in solution.plans
        ],
        "rejected_tasks": list(solution.rejected_tasks),
    }


def _plan_from_dict(data: Mapping[str, Any]) -> DriverPlan:
    kind = "plan"
    return DriverPlan(
        driver_id=_field(data, kind, "driver_id", str),
        task_indices=_field(data, kind, "task_indices", lambda ms: tuple(int(m) for m in ms)),
        profit=_field(data, kind, "profit", float),
        arrival_times=_field(
            data,
            kind,
            "arrival_times",
            lambda ts: tuple(math.nan if t is None else float(t) for t in ts),
            (),
        ),
    )


def solution_from_dict(data: Mapping[str, Any], instance: MarketInstance) -> MarketSolution:
    """Rebuild a solution against an already-loaded instance.  Documents
    without ``arrival_times`` or ``rejected_tasks`` read them as empty."""
    kind = "solution"
    if _field(data, kind, "format", str, None) != f"{FORMAT_NAME}-solution":
        raise SerializationError("not a solution document")
    return MarketSolution(
        instance=instance,
        plans=_field(data, kind, "plans", lambda ps: tuple(_plan_from_dict(p) for p in ps), ()),
        objective=_field(data, kind, "objective", Objective, Objective.DRIVERS_PROFIT.value),
        rejected_tasks=_field(
            data, kind, "rejected_tasks", lambda ms: tuple(int(m) for m in ms), ()
        ),
    )


def save_solution(
    solution: MarketSolution, path: Union[str, Path], algorithm: str = "unknown"
) -> None:
    Path(path).write_text(
        json.dumps(solution_to_dict(solution, algorithm=algorithm), indent=2), encoding="utf-8"
    )


def load_solution(path: Union[str, Path], instance: MarketInstance) -> MarketSolution:
    return solution_from_dict(json.loads(Path(path).read_text(encoding="utf-8")), instance)
