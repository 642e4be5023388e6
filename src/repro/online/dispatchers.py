"""Online dispatch rules.

Both of the paper's online heuristics share the same skeleton (build the
candidate set for the arriving task, pick one candidate, lock the driver) and
differ only in the selection criterion:

* **Nearest driver** (Algorithm 3) — the candidate who can reach the pickup
  first, ties broken uniformly at random;
* **Maximum marginal value** (Algorithm 4) — the candidate with the largest
  marginal value ``delta_{n,m}`` (Eq. 14).

A uniformly random dispatcher is included as an extra baseline for ablations.
"""

from __future__ import annotations

import abc
import random
from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..market.task import Task
from .state import Candidate


class Dispatcher(abc.ABC):
    """Strategy interface: pick one candidate (or reject the task)."""

    #: Human-readable name used in reports and benchmark output.
    name: str = "dispatcher"

    @abc.abstractmethod
    def select(self, task: Task, candidates: Sequence[Candidate]) -> Optional[Candidate]:
        """Choose the driver to serve ``task``; ``None`` rejects the task."""


@dataclass
class NearestDispatcher(Dispatcher):
    """Algorithm 3 — dispatch to the driver who arrives at the pickup first.

    Ties (equal arrival times) are broken uniformly at random, as the paper
    specifies ("if multiple, choose a random one").
    """

    seed: int = 0
    name: str = field(default="nearest", init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def select(self, task: Task, candidates: Sequence[Candidate]) -> Optional[Candidate]:
        if not candidates:
            return None
        best_arrival = min(c.arrival_ts for c in candidates)
        fastest = [c for c in candidates if c.arrival_ts <= best_arrival + 1e-9]
        return self._rng.choice(fastest)


@dataclass
class MaxMarginDispatcher(Dispatcher):
    """Algorithm 4 — dispatch to the driver with the largest marginal value.

    Unlike the literal Algorithm 4, which always dispatches to the arg-max
    candidate, the task is rejected when even the best candidate would lose
    money on it: this keeps every driver's profit non-negative, matching the
    individual-rationality constraint (5b) of the offline model.
    """

    name: str = field(default="maxMargin", init=False)

    def select(self, task: Task, candidates: Sequence[Candidate]) -> Optional[Candidate]:
        if not candidates:
            return None
        best = max(candidates, key=lambda c: c.marginal_value)
        if best.marginal_value <= 0.0:
            return None
        return best


@dataclass
class RandomDispatcher(Dispatcher):
    """Baseline: dispatch to a uniformly random feasible candidate."""

    seed: int = 0
    name: str = field(default="random", init=False)

    def __post_init__(self) -> None:
        self._rng = random.Random(self.seed)

    def select(self, task: Task, candidates: Sequence[Candidate]) -> Optional[Candidate]:
        if not candidates:
            return None
        return self._rng.choice(list(candidates))
