"""repro — an optimization framework for online ride-sharing markets.

A production-quality reproduction of *"An Optimization Framework for Online
Ride-sharing Markets"* (Jia, Xu, Liu — ICDCS 2017): the two-sided market
model, per-driver task-map construction, the offline greedy node-disjoint-path
algorithm with its ``1/(D+1)`` guarantee, the LP/exact/Lagrangian upper
bounds, the Nearest and maxMargin online heuristics, surge pricing, a
Porto-like trace substrate, a distributed (sharded) solving mode, a
declarative scenario engine (demand surges, closures, supply shocks —
see :mod:`repro.scenarios`), and the experiment harness that regenerates
every figure of the paper's evaluation.

Quickstart
----------
>>> from repro import (
...     generate_trace, generate_drivers, market_from_trace,
...     greedy_assignment,
... )
>>> trips = generate_trace(trip_count=100, seed=1)
>>> drivers = generate_drivers(count=20, seed=2)
>>> market = market_from_trace(trips, drivers)
>>> solution = greedy_assignment(market)
>>> solution.validate()
>>> round(solution.serve_rate, 2) >= 0.0
True
"""

from .core import (
    DriverPlan,
    InfeasibleSolutionError,
    MarketSolution,
    Objective,
)
from .geo import BoundingBox, GeoPoint, PORTO, TravelModel, default_travel_model
from .market import (
    Driver,
    MarketCostModel,
    MarketInstance,
    Task,
    market_diameter,
    market_from_trace,
    tasks_from_trips,
)
from .offline import (
    GreedySolver,
    best_path,
    build_tight_example,
    exact_optimum,
    greedy_assignment,
    lagrangian_bound,
)
from .online import (
    BatchedSimulator,
    MaxMarginDispatcher,
    NearestDispatcher,
    OnlineSimulator,
    run_batched,
    run_online,
)
from .pricing import FareSchedule, LinearPricing, SurgeEngine, SurgePricing
from .trace import (
    PortoLikeTraceGenerator,
    TraceConfig,
    TripRecord,
    WorkingModel,
    generate_drivers,
    generate_trace,
    load_porto_trips,
)
from .distributed import DistributedCoordinator, SpatialPartitioner
from .scenarios import (
    ScenarioSpec,
    compile_scenario,
    get_scenario,
    run_scenario_suite,
    scenario_names,
)
from .analysis import BoundKind, PerformanceRatio, compute_upper_bound, fleet_stats
from .io import load_instance, load_solution, save_instance, save_solution
from .experiments import (
    ExperimentConfig,
    ExperimentScale,
    run_distribution_experiment,
    run_everything,
    run_fig5,
    run_market_insight_sweep,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "Objective",
    "MarketSolution",
    "DriverPlan",
    "InfeasibleSolutionError",
    # geo
    "GeoPoint",
    "BoundingBox",
    "PORTO",
    "TravelModel",
    "default_travel_model",
    # market
    "Driver",
    "Task",
    "MarketCostModel",
    "MarketInstance",
    "market_from_trace",
    "tasks_from_trips",
    "market_diameter",
    # offline
    "GreedySolver",
    "greedy_assignment",
    "best_path",
    "lagrangian_bound",
    "exact_optimum",
    "build_tight_example",
    # online
    "OnlineSimulator",
    "run_online",
    "BatchedSimulator",
    "run_batched",
    "NearestDispatcher",
    "MaxMarginDispatcher",
    # pricing
    "FareSchedule",
    "LinearPricing",
    "SurgeEngine",
    "SurgePricing",
    # trace
    "TripRecord",
    "TraceConfig",
    "PortoLikeTraceGenerator",
    "generate_trace",
    "generate_drivers",
    "WorkingModel",
    "load_porto_trips",
    # distributed
    "SpatialPartitioner",
    "DistributedCoordinator",
    # scenarios
    "ScenarioSpec",
    "compile_scenario",
    "get_scenario",
    "scenario_names",
    "run_scenario_suite",
    # analysis
    "BoundKind",
    "PerformanceRatio",
    "compute_upper_bound",
    "fleet_stats",
    # io
    "save_instance",
    "load_instance",
    "save_solution",
    "load_solution",
    # experiments
    "ExperimentConfig",
    "ExperimentScale",
    "run_distribution_experiment",
    "run_fig5",
    "run_market_insight_sweep",
    "run_everything",
]
