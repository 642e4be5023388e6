"""Distributed (sharded) solving of city-scale markets."""

from .coordinator import SOLVER_NAMES, DistributedCoordinator, solve_shard
from .messages import DistributedResult, FanOutReport, ShardResult, ShardWorkRequest
from .payload import ShardPayloadDelta, delta_from_tasks, tasks_from_delta
from .partition import (
    MarketShard,
    PartitionPlan,
    RebalancePolicy,
    ShardSpec,
    SpatialPartitioner,
    ZonePartition,
    plan_rebalance_action,
)
from .pool import (
    EXECUTOR_POLICIES,
    PersistentWorkerPool,
    ShardStreamSession,
    WorkerPoolBrokenError,
    lpt_slot_assignment,
)
from .stream import DistributedStreamSession, PendingAppend
from .transport import (
    TRANSPORTS,
    DeltaDescriptor,
    ShmShipper,
    TransportStats,
    delta_from_descriptor,
    delta_wire_bytes,
)

__all__ = [
    "SpatialPartitioner",
    "ZonePartition",
    "PartitionPlan",
    "MarketShard",
    "ShardSpec",
    "plan_rebalance_action",
    "ShardWorkRequest",
    "ShardResult",
    "FanOutReport",
    "DistributedCoordinator",
    "DistributedResult",
    "DistributedStreamSession",
    "PendingAppend",
    "RebalancePolicy",
    "PersistentWorkerPool",
    "WorkerPoolBrokenError",
    "ShardStreamSession",
    "lpt_slot_assignment",
    "solve_shard",
    "SOLVER_NAMES",
    "EXECUTOR_POLICIES",
    "TRANSPORTS",
    "TransportStats",
    "ShmShipper",
    "DeltaDescriptor",
    "delta_from_descriptor",
    "delta_wire_bytes",
    "ShardPayloadDelta",
    "delta_from_tasks",
    "tasks_from_delta",
]
