"""Online dispatch: driver state, dispatch heuristics and the simulator."""

from .batch import BatchConfig, BatchedSimulator, run_batched, window_batches
from .candidates import CandidateKernel
from .dispatchers import Dispatcher, MaxMarginDispatcher, NearestDispatcher
from .forecast import EwmaDemandForecaster, OracleDemandForecaster, ZoneGrid
from .horizon import LookaheadPlanner
from .repositioning import DemandHeatmap, HotspotRepositioning
from .simulator import OnlineSimulator, TaskOrdering, run_online
from .state import Candidate, DriverState

__all__ = [
    "CandidateKernel",
    "Dispatcher",
    "NearestDispatcher",
    "MaxMarginDispatcher",
    "BatchConfig",
    "BatchedSimulator",
    "run_batched",
    "window_batches",
    "DemandHeatmap",
    "ZoneGrid",
    "EwmaDemandForecaster",
    "OracleDemandForecaster",
    "LookaheadPlanner",
    "HotspotRepositioning",
    "DriverState",
    "Candidate",
    "OnlineSimulator",
    "TaskOrdering",
    "run_online",
]
