"""Declarative city-workload scenarios driving the offline and streaming stacks.

The scenario engine separates the *plan* from the *execution engine*: a
frozen :class:`ScenarioSpec` composes a base trace configuration with a
timeline of typed events (demand surges, zone closures, supply shocks,
travel slowdowns, hotspot migrations), the :class:`ScenarioCompiler` lowers
it deterministically into the artifacts the existing stacks consume (a
trip day, a priced market instance, publish-ordered arrival batches), the
built-in library names ready-made city days, and :func:`run_scenario_suite`
sweeps scenarios x dispatch modes on one warm worker pool and reports the
per-scenario comparison (serve rate, revenue, mean wait, shard-load skew).

Because compilation produces ordinary market inputs, every parity contract
of the execution layers — stream == replay, serial == process, shared
pool == own pool — extends to every scenario for free.
"""

from .compiler import CompiledScenario, ScenarioCompiler, compile_scenario
from .library import BUILTIN_SCENARIOS, get_scenario, scenario_names
from .spec import (
    DemandSurge,
    HotspotMigration,
    ScenarioEvent,
    ScenarioSpec,
    SpatialFootprint,
    SupplyShock,
    TravelSlowdown,
    ZoneClosure,
)
from .suite import (
    OFFLINE_SOLVERS,
    ScenarioRunMetrics,
    ScenarioSuiteResult,
    run_scenario_suite,
)

__all__ = [
    "ScenarioSpec",
    "ScenarioEvent",
    "SpatialFootprint",
    "DemandSurge",
    "ZoneClosure",
    "SupplyShock",
    "TravelSlowdown",
    "HotspotMigration",
    "ScenarioCompiler",
    "CompiledScenario",
    "compile_scenario",
    "BUILTIN_SCENARIOS",
    "get_scenario",
    "scenario_names",
    "ScenarioRunMetrics",
    "ScenarioSuiteResult",
    "run_scenario_suite",
    "OFFLINE_SOLVERS",
]
