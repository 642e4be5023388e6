"""The per-arc arc-flow builder: the reference side of parity contract 23.

:func:`repro.offline.formulation.build_arc_flow_model` assembles the model of
Eqs. (4)-(7) from array blocks, one block per driver over the task network's
CSR arcs.  This is the loop it replaced: it walks every driver's task map arc
by arc and appends each variable, objective coefficient and constraint entry
in turn.  Both must give the same arcs, objective, constant and constraint
arrays.  No ``src/`` code calls it.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np
from scipy import sparse

from repro.core.objectives import Objective
from repro.market.instance import MarketInstance
from repro.market.taskmap import SINK_NODE, SOURCE_NODE
from repro.offline.formulation import ArcFlowModel, ArcKey


def build_arc_flow_model_oracle(
    instance: MarketInstance,
    objective: Objective = Objective.DRIVERS_PROFIT,
    include_rationality: bool = True,
) -> ArcFlowModel:
    """Assemble the arc-flow model for ``instance``, one Python step per arc."""
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
