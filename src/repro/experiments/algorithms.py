"""The algorithm roster used by every experiment.

The evaluation compares three algorithms throughout (Figs. 5-9): the offline
greedy (Algorithm 1), the online maximum-marginal-value heuristic
(Algorithm 4) and the online nearest-driver heuristic (Algorithm 3).  This
module gives them their canonical names and a single ``run`` entry point that
returns a :class:`~repro.core.MarketSolution` for each.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Tuple

from ..core.solution import MarketSolution
from ..market.instance import MarketInstance
from ..offline.greedy import greedy_assignment
from ..online.dispatchers import MaxMarginDispatcher, NearestDispatcher
from ..online.simulator import OnlineSimulator

#: Canonical algorithm names used in every table and figure.
GREEDY = "Greedy"
MAX_MARGIN = "maxMargin"
NEAREST = "Nearest"

ALGORITHM_NAMES: Tuple[str, ...] = (GREEDY, MAX_MARGIN, NEAREST)


@dataclass(frozen=True, slots=True)
class AlgorithmSpec:
    """Name plus the callable that runs the algorithm on an instance."""

    name: str
    run: Callable[[MarketInstance], MarketSolution]


def _run_greedy(instance: MarketInstance) -> MarketSolution:
    return greedy_assignment(instance)


def _run_max_margin(instance: MarketInstance) -> MarketSolution:
    return OnlineSimulator(instance, MaxMarginDispatcher()).run()


def _run_nearest(instance: MarketInstance) -> MarketSolution:
    return OnlineSimulator(instance, NearestDispatcher(seed=13)).run()


def standard_algorithms() -> Tuple[AlgorithmSpec, ...]:
    """The three algorithms the paper plots, in plot order."""
    return (
        AlgorithmSpec(GREEDY, _run_greedy),
        AlgorithmSpec(MAX_MARGIN, _run_max_margin),
        AlgorithmSpec(NEAREST, _run_nearest),
    )


def run_all(instance: MarketInstance) -> Dict[str, MarketSolution]:
    """Run every standard algorithm on the same instance."""
    return {spec.name: spec.run(instance) for spec in standard_algorithms()}
