"""Event-driven online market simulator.

Implements the shared skeleton of Algorithms 3 and 4:

1. Tasks are processed one by one in order of their publish time ``t̄_m``
   (or, for the offline "sorted" variant the paper sketches at the end of
   Section V-B, in descending value order).
2. For the arriving task, the candidate set contains every driver — unlocked
   or still finishing a previous task — who can reach the pickup before the
   task's start deadline, serve the ride, and still make it to her own
   destination before the end of her shift
   (a one-task window of
   :meth:`~repro.online.candidates.CandidateKernel.candidates_for_window`,
   the same query the batched simulator makes).
3. The plugged-in :class:`~repro.online.dispatchers.Dispatcher` picks one
   candidate (Nearest / maxMargin / random); the driver is locked, her
   location and busy-until time advance to the task's drop-off, and her
   running profit is updated with the actual drive costs.
4. When the stream ends, every driver who worked settles her final leg home:
   she pays the drive from her last drop-off to her own destination and is
   credited her original source-to-destination cost, exactly as the objective
   of Eq. (4) prescribes.
"""

from __future__ import annotations

import enum
from typing import List, Tuple

from ..core.solution import MarketSolution
from ..market.instance import MarketInstance
from ..market.task import Task
from .candidates import CandidateKernel
from .dispatchers import Dispatcher
from .repositioning import HotspotRepositioning
from .state import DriverState


class TaskOrdering(enum.Enum):
    """The order in which the simulator feeds tasks to the dispatcher."""

    #: Online setting: tasks arrive by publish time (Algorithms 3 and 4).
    ARRIVAL = "arrival"
    #: Offline variant: highest-price tasks first (Section V-B's remark that
    #: "it will be more efficient to deal with the tasks which have higher
    #: values firstly" when the whole day is known in advance).
    VALUE = "value"


class OnlineSimulator:
    """Runs one dispatcher over one market instance.

    The timing is trace replay: a driver who reaches the pickup early waits
    for the task's recorded start (the rider is not there yet), and the ride
    occupies her for its recorded pickup-to-drop-off window, which keeps
    every online schedule realisable in the offline model.
    """

    def __init__(
        self,
        instance: MarketInstance,
        dispatcher: Dispatcher,
        *,
        ordering: TaskOrdering = TaskOrdering.ARRIVAL,
        repositioning: HotspotRepositioning | None = None,
    ) -> None:
        self.instance = instance
        self.dispatcher = dispatcher
        self.ordering = ordering
        self.repositioning = repositioning
        self._cost_model = instance.cost_model

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def run(self) -> MarketSolution:
        """Simulate the full task stream; the solution has one plan per
        driver, in fleet order."""
        states = {
            driver.driver_id: DriverState.fresh(driver) for driver in self.instance.drivers
        }
        kernel = CandidateKernel(self.instance, states.values())
        rejected: List[int] = []

        for task_index, task in self._task_stream():
            now_ts = task.publish_ts
            for state in states.values():
                state.release_if_done(now_ts)
            if self.repositioning is not None:
                self.repositioning.reposition(states.values(), now_ts, on_move=kernel.sync)

            candidates = kernel.candidates_for_window([task_index], now_ts).get(task_index, [])
            choice = self.dispatcher.select(task, candidates)
            if choice is None:
                rejected.append(task_index)
                continue
            kernel.commit(choice, task_index, task)

        return MarketSolution(
            instance=self.instance,
            plans=tuple(state.settle(self._cost_model) for state in states.values()),
            rejected_tasks=tuple(rejected),
        )

    # ------------------------------------------------------------------
    # pipeline stages
    # ------------------------------------------------------------------
    def _task_stream(self) -> List[Tuple[int, Task]]:
        """The publishable tasks in dispatch order.  An unpublishable task
        (price above the customer's WTP) is never dispatched: serving it
        would violate her individual rationality."""
        indexed = [(i, t) for i, t in enumerate(self.instance.tasks) if t.is_publishable]
        if self.ordering is TaskOrdering.ARRIVAL:
            indexed.sort(key=lambda pair: (pair[1].publish_ts, pair[0]))
        else:
            indexed.sort(key=lambda pair: (-pair[1].price, pair[1].publish_ts, pair[0]))
        return indexed


def run_online(
    instance: MarketInstance,
    dispatcher: Dispatcher,
    ordering: TaskOrdering = TaskOrdering.ARRIVAL,
) -> MarketSolution:
    """Convenience wrapper around :class:`OnlineSimulator`."""
    return OnlineSimulator(instance, dispatcher, ordering=ordering).run()
