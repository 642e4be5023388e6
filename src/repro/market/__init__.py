"""Market core: drivers, tasks, cost model, task maps and market instances."""

from .cost import Leg, MarketCostModel
from .driver import Driver
from .instance import (
    MarketInstance,
    graph_summary,
    market_diameter,
    market_from_trace,
    tasks_from_trips,
)
from .streaming import StreamingMarketInstance
from .task import Task
from .taskmap import (
    SINK_NODE,
    SOURCE_NODE,
    DriverTaskMap,
    TaskColumns,
    TaskNetwork,
    build_driver_task_maps,
    build_task_columns,
    build_task_network,
)

__all__ = [
    "Driver",
    "Task",
    "Leg",
    "MarketCostModel",
    "MarketInstance",
    "StreamingMarketInstance",
    "market_from_trace",
    "tasks_from_trips",
    "TaskColumns",
    "TaskNetwork",
    "DriverTaskMap",
    "build_task_columns",
    "build_task_network",
    "build_driver_task_maps",
    "SOURCE_NODE",
    "SINK_NODE",
    "market_diameter",
    "graph_summary",
]
