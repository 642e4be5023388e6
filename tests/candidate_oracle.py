"""The per-driver candidate loop: the reference side of parity contract 2.

:meth:`repro.online.candidates.CandidateKernel.candidates_for_window`, the
kernel's one candidate query, answers with array masks over the fleet.  This
is the scalar loop it replaced: one Python pass over the kernel's driver
states, three ``cost_model.leg`` calls per (driver, task) pair, the same
feasibility tests and epsilons.  The tests and the micro benchmark
substitute :func:`candidates_for_window_scalar` for the query and require
identical candidates and whole-simulation outcomes.  No ``src/`` code calls
it.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.market.task import Task
from repro.online.candidates import CandidateKernel
from repro.online.state import Candidate


def candidates_for_scalar(
    kernel: CandidateKernel, task_index: int, task: Task, now_ts: float
) -> List[Candidate]:
    """``kernel.candidates_for_window([task_index], now_ts).get(task_index,
    [])``, computed by the per-driver loop."""
    columns = kernel.instance.task_columns
    if not columns.servable[task_index]:
        return []
    service_cost = float(columns.service_costs[task_index])
    cost_model = kernel.instance.cost_model

    candidates: List[Candidate] = []
    for state in kernel._states:
        driver = state.driver
        depart_ts = max(state.free_at, now_ts, driver.start_ts)
        if depart_ts > task.start_deadline_ts:
            continue
        approach = cost_model.leg(state.location, task.source, ts=now_ts)
        arrival_ts = depart_ts + approach.time_s
        if arrival_ts > task.start_deadline_ts + 1e-9:
            continue
        pickup_ts = max(arrival_ts, task.start_deadline_ts)
        dropoff_ts = pickup_ts + task.ride_window_s
        if dropoff_ts > task.end_deadline_ts + 1e-9:
            continue
        home_leg = cost_model.leg(task.destination, driver.destination, ts=now_ts)
        if dropoff_ts + home_leg.time_s > driver.end_ts + 1e-9:
            continue
        current_home_leg = cost_model.leg(state.location, driver.destination, ts=now_ts)
        marginal = task.price - (
            home_leg.cost + service_cost + approach.cost - current_home_leg.cost
        )
        candidates.append(
            Candidate(
                state=state,
                arrival_ts=arrival_ts,
                dropoff_ts=dropoff_ts,
                approach_cost=approach.cost,
                marginal_value=marginal,
            )
        )
    return candidates


def candidates_for_window_scalar(
    kernel: CandidateKernel, task_indices: Sequence[int], now_ts: float
) -> Dict[int, List[Candidate]]:
    """``kernel.candidates_for_window(task_indices, now_ts)``, one per-driver
    loop per task (a drop-in replacement for the method)."""
    out: Dict[int, List[Candidate]] = {}
    for m in task_indices:
        found = candidates_for_scalar(kernel, m, kernel.instance.tasks[m], now_ts)
        if found:
            out[m] = found
    return out
