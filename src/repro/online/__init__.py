"""Online dispatch: driver state, dispatch heuristics and the simulator."""

from .batch import BatchConfig, BatchedSimulator, run_batched, run_batched_stream, window_batches
from .candidates import CandidateKernel
from .dispatchers import Dispatcher, MaxMarginDispatcher, NearestDispatcher, RandomDispatcher
from .forecast import EwmaDemandForecaster, OracleDemandForecaster, ZoneGrid
from .horizon import ForecastHeatmap, LookaheadPlanner
from .repositioning import (
    DemandHeatmap,
    HotspotRepositioning,
    NoRepositioning,
    RepositioningMove,
    RepositioningPolicy,
    apply_repositioning,
)
from .simulator import OnlineSimulator, TaskOrdering, run_online
from .state import Candidate, DriverState

__all__ = [
    "CandidateKernel",
    "Dispatcher",
    "NearestDispatcher",
    "MaxMarginDispatcher",
    "RandomDispatcher",
    "BatchConfig",
    "BatchedSimulator",
    "run_batched",
    "run_batched_stream",
    "window_batches",
    "DemandHeatmap",
    "ZoneGrid",
    "EwmaDemandForecaster",
    "OracleDemandForecaster",
    "ForecastHeatmap",
    "LookaheadPlanner",
    "RepositioningPolicy",
    "RepositioningMove",
    "HotspotRepositioning",
    "NoRepositioning",
    "apply_repositioning",
    "DriverState",
    "Candidate",
    "OnlineSimulator",
    "TaskOrdering",
    "run_online",
]
