"""Arc-flow formulation of the optimisation problem (Eqs. 4-7).

Builds the sparse linear model shared by the LP-relaxation bound
(:mod:`repro.offline.relaxation`) and the exact MILP solver
(:mod:`repro.offline.exact`).

Variables.  One flow variable per arc of every driver's task map:

* ``(n, source, m)`` — driver ``n`` starts with task ``m``;
* ``(n, m, m')``     — driver ``n`` takes ``m'`` right after ``m``;
* ``(n, m, sink)``   — task ``m`` is driver ``n``'s last task;
* ``(n, source, sink)`` — driver ``n`` takes no tasks.

The assignment variables ``x_{n,m}`` of the paper are implied (they equal the
in-flow of task ``m`` for driver ``n``) and are not materialised.

Objective.  Each arc ``(u, m)`` into a task carries the task's gain
(``p_m - ĉ_m``, or ``b_m - ĉ_m`` for social welfare) minus the empty-drive
leg cost; arcs into the sink carry minus their leg cost; the per-driver
constant ``c_{n,0,-1}`` is returned separately so objective values match
Eq. (4) exactly.

Constraints.

* per driver: source out-flow = 1 and sink in-flow = 1 (5c, 5d);
* per driver and task: flow conservation (5e, 5f);
* per task: total in-flow over all drivers <= 1 (5a);
* optionally, per driver: profit >= 0 (individual rationality, 5b).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np
from scipy import optimize, sparse

from ..core.objectives import Objective
from ..market.instance import MarketInstance
from ..market.taskmap import SINK_NODE, SOURCE_NODE
from ..obs import trace as obs_trace

ArcKey = Tuple[str, Union[str, int], Union[str, int]]


@dataclass(frozen=True)
class ArcFlowModel:
    """The assembled sparse model.

    ``A_eq x = b_eq`` holds the per-driver flow constraints, ``A_ub x <= b_ub``
    holds the task-capacity (and optional rationality) constraints, and
    ``objective`` is the per-variable profit coefficient (to be maximised).
    ``constant`` is the sum of the drivers' direct-leg costs that Eq. (4)
    credits back.
    """

    instance: MarketInstance
    objective_sense: Objective
    arcs: Tuple[ArcKey, ...]
    objective: np.ndarray
    constant: float
    A_eq: sparse.csr_matrix
    b_eq: np.ndarray
    A_ub: sparse.csr_matrix
    b_ub: np.ndarray

    @property
    def variable_count(self) -> int:
        return len(self.arcs)

    def solve_lp(self) -> Tuple[Optional[float], np.ndarray, str]:
        """Solve the LP relaxation (``0 <= x <= 1``) with HiGHS: the optimum
        with ``constant`` added back, the primal arc flows and the solver's
        message.  The optimum is ``None`` when the solver did not reach one;
        the caller raises its own error around the message."""
        with obs_trace.span("lp", variables=self.variable_count):
            result = optimize.linprog(
                c=-self.objective,  # linprog minimises
                A_ub=self.A_ub,
                b_ub=self.b_ub,
                A_eq=self.A_eq,
                b_eq=self.b_eq,
                bounds=(0.0, 1.0),
                method="highs",
            )
        if not result.success:
            return None, np.zeros(0), str(result.message)
        return float(-result.fun + self.constant), np.asarray(result.x), str(result.message)

    def arc_index(self, arc: ArcKey) -> int:
        """Index of an arc variable (linear scan; intended for tests)."""
        try:
            return self.arcs.index(arc)
        except ValueError:
            raise KeyError(f"arc {arc!r} is not part of the model") from None

    def solution_to_assignment(
        self, values: np.ndarray, threshold: float = 0.5
    ) -> Dict[str, Tuple[int, ...]]:
        """Decode an (integral) arc-flow vector into driver task lists.

        Follows the out-arcs with value above ``threshold`` from each driver's
        source to her sink.  Intended for exact MILP solutions; fractional LP
        solutions generally do not decode to a single path.
        """
        chosen: Dict[str, Dict[Union[str, int], Union[str, int]]] = {}
        for arc, value in zip(self.arcs, values):
            if value < threshold:
                continue
            driver_id, tail, head = arc
            chosen.setdefault(driver_id, {})[tail] = head
        assignment: Dict[str, Tuple[int, ...]] = {}
        for driver_id, nexts in chosen.items():
            path: List[int] = []
            node: Union[str, int] = SOURCE_NODE
            visited = 0
            while node != SINK_NODE:
                node = nexts.get(node, SINK_NODE)
                visited += 1
                if visited > len(nexts) + 1:
                    raise ValueError(f"arc flow of driver {driver_id!r} does not form a path")
                if node != SINK_NODE:
                    path.append(int(node))
            if path:
                assignment[driver_id] = tuple(path)
        return assignment


def build_arc_flow_model(
    instance: MarketInstance,
    objective: Objective = Objective.DRIVERS_PROFIT,
    include_rationality: bool = True,
) -> ArcFlowModel:
    """Assemble the arc-flow model for ``instance``."""
    network = instance.task_network
    gains = (
        network.valuations if objective.uses_valuation else network.prices
    ) - network.service_costs

    arcs: List[ArcKey] = []
    coefficients: List[float] = []
    constant = 0.0

    # Per-arc bookkeeping for the constraint matrices.
    eq_rows: List[int] = []
    eq_cols: List[int] = []
    eq_data: List[float] = []
    eq_rhs: List[float] = []

    ub_rows: List[int] = []
    ub_cols: List[int] = []
    ub_data: List[float] = []
    ub_rhs: List[float] = []

    # Task-capacity rows are allocated first so that their indices are stable
    # regardless of the driver count.
    task_capacity_row: Dict[int, int] = {}
    for m in range(instance.task_count):
        task_capacity_row[m] = len(ub_rhs)
        ub_rhs.append(1.0)

    next_eq_row = 0
    for driver in instance.drivers:
        task_map = instance.task_map(driver.driver_id)
        constant += task_map.direct_leg.cost

        usable = [int(m) for m in task_map.usable_tasks()]
        usable_set = set(usable)
        entry = [int(m) for m in task_map.entry_tasks()]

        source_row = next_eq_row
        sink_row = next_eq_row + 1
        next_eq_row += 2
        eq_rhs.extend([1.0, 1.0])
        task_rows = {}
        for m in usable:
            task_rows[m] = next_eq_row
            next_eq_row += 1
            eq_rhs.append(0.0)

        rationality_row: Optional[int] = None
        if include_rationality:
            rationality_row = len(ub_rhs)
            ub_rhs.append(task_map.direct_leg.cost)

        def add_arc(tail, head, coefficient: float) -> int:
            index = len(arcs)
            arcs.append((driver.driver_id, tail, head))
            coefficients.append(coefficient)
            if rationality_row is not None:
                # Individual rationality: -(per-driver profit) <= direct cost.
                ub_rows.append(rationality_row)
                ub_cols.append(index)
                ub_data.append(-coefficient)
            return index

        # source -> sink (driver idles)
        idx = add_arc(SOURCE_NODE, SINK_NODE, -task_map.direct_leg.cost)
        eq_rows.extend([source_row, sink_row])
        eq_cols.extend([idx, idx])
        eq_data.extend([1.0, 1.0])

        # source -> m
        for m in entry:
            coefficient = float(gains[m] - task_map.source_leg_costs[m])
            idx = add_arc(SOURCE_NODE, m, coefficient)
            eq_rows.extend([source_row, task_rows[m]])
            eq_cols.extend([idx, idx])
            eq_data.extend([1.0, 1.0])
            ub_rows.append(task_capacity_row[m])
            ub_cols.append(idx)
            ub_data.append(1.0)

        # m -> sink
        for m in usable:
            coefficient = float(-task_map.sink_leg_costs[m])
            idx = add_arc(m, SINK_NODE, coefficient)
            eq_rows.extend([task_rows[m], sink_row])
            eq_cols.extend([idx, idx])
            eq_data.extend([-1.0, 1.0])

        # m -> m'
        for m in usable:
            successors = network.successors[m]
            leg_costs = network.leg_costs[m]
            for j, m_prime in enumerate(int(x) for x in successors):
                if m_prime not in usable_set:
                    continue
                coefficient = float(gains[m_prime] - leg_costs[j])
                idx = add_arc(m, m_prime, coefficient)
                eq_rows.extend([task_rows[m], task_rows[m_prime]])
                eq_cols.extend([idx, idx])
                eq_data.extend([-1.0, 1.0])
                ub_rows.append(task_capacity_row[m_prime])
                ub_cols.append(idx)
                ub_data.append(1.0)

    variable_count = len(arcs)
    A_eq = sparse.csr_matrix(
        (eq_data, (eq_rows, eq_cols)), shape=(len(eq_rhs), variable_count)
    )
    A_ub = sparse.csr_matrix(
        (ub_data, (ub_rows, ub_cols)), shape=(len(ub_rhs), variable_count)
    )
    return ArcFlowModel(
        instance=instance,
        objective_sense=objective,
        arcs=tuple(arcs),
        objective=np.array(coefficients, dtype=float),
        constant=constant,
        A_eq=A_eq,
        b_eq=np.array(eq_rhs, dtype=float),
        A_ub=A_ub,
        b_ub=np.array(ub_rhs, dtype=float),
    )
