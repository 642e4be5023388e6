"""Arc-flow formulation of the optimisation problem (Eqs. 4-7).

Builds the sparse linear model and solves it with HiGHS in one place,
:meth:`ArcFlowModel.solve`: as the LP relaxation ``Z*_f`` (Section III-E,
Fig. 5's bound) or as the binary program ``Z*`` (Section VI-B).

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

import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple, Union

import numpy as np
from scipy import optimize, sparse

from ..core.objectives import Objective
from ..market.instance import MarketInstance
from ..market.taskmap import SINK_NODE, SOURCE_NODE
from ..obs import trace as obs_trace

ArcKey = Tuple[str, Union[str, int], Union[str, int]]


#: Arc values closer to an integer than this are treated as integral.
INTEGRALITY_TOL = 1e-6


class ExactSolverError(RuntimeError):
    """Raised when HiGHS does not return an optimum of the arc-flow program,
    or when :func:`repro.offline.flow.exact_optimum` refuses an instance
    above its size limit."""


@dataclass(frozen=True)
class ArcFlowSolution:
    """One HiGHS solve of an :class:`ArcFlowModel`.

    ``value`` is the objective of ``x`` with the model's ``constant`` added
    back.  ``upper_bound`` is the solver's certified bound on the same
    scale: the LP optimum itself, or the MILP's ``mip_dual_bound``.
    ``status`` is the solver's message, and ``fractional_arc_count`` counts
    the arc values farther than :data:`INTEGRALITY_TOL` from an integer.
    """

    value: float
    upper_bound: float
    x: np.ndarray
    status: str
    fractional_arc_count: int


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

    def solve(
        self, integral: bool = False, time_limit_s: Optional[float] = None
    ) -> ArcFlowSolution:
        """Solve the model with HiGHS: the LP relaxation (``0 <= x <= 1``),
        or with ``integral`` the binary program.

        One ``milp`` call (scipy's HiGHS wrapper), with ``time_limit_s``
        handed to HiGHS.  Raises :class:`ExactSolverError` unless HiGHS
        reports an optimum (status 0): a time-limited incumbent is not
        ``Z*``.  A model with no variables (no drivers) solves to 0 without
        a solver call.
        """
        if self.variable_count == 0:
            return ArcFlowSolution(0.0, 0.0, np.zeros(0), "empty", 0)
        options = {} if time_limit_s is None else {"time_limit": float(time_limit_s)}
        with obs_trace.span("lp", variables=self.variable_count):
            result = optimize.milp(
                c=-self.objective,  # milp minimises
                integrality=np.full(self.variable_count, int(integral)),
                bounds=optimize.Bounds(0.0, 1.0),
                # Capacity rows before flow rows: HiGHS's vertex, down to
                # the last bit of Z*_f, depends on the row order.
                constraints=[
                    optimize.LinearConstraint(self.A_ub, -np.inf, self.b_ub),
                    optimize.LinearConstraint(self.A_eq, self.b_eq, self.b_eq),
                ],
                options=options,
            )
        if result.status != 0:
            kind = "MILP" if integral else "arc-flow LP"
            raise ExactSolverError(f"{kind} failed: {result.message}")
        x = np.asarray(result.x)
        value = float(-result.fun + self.constant)
        upper_bound = float(-result.mip_dual_bound + self.constant) if integral else value
        fractional = np.abs(x - np.round(x)) > INTEGRALITY_TOL
        return ArcFlowSolution(
            value, upper_bound, x, str(result.message), int(np.count_nonzero(fractional))
        )

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
    """Assemble the arc-flow model for ``instance``.

    Each driver contributes one block of variables, in this order: the idle
    arc, the source -> m arcs, the m -> sink arcs and the m -> m' arcs (the
    network's CSR arcs with both ends usable).  Equality rows are numbered
    per driver: source, sink, then one per usable task.  Inequality rows
    ``0..M-1`` are the task capacities; with ``include_rationality`` row
    ``M + i`` is driver ``i``'s rationality row.
    """
    network = instance.task_network
    task_count = instance.task_count
    gains = (
        network.valuations if objective.uses_valuation else network.prices
    ) - network.service_costs
    arc_tail = np.repeat(np.arange(task_count), np.diff(network.arc_ptr))
    # Nodes are task indices, with the source and sink as -2 and -1: they
    # index the last two slots of a per-driver ``node_row`` and of ``labels``.
    source, sink = -2, -1
    labels = np.array([*range(task_count), SOURCE_NODE, SINK_NODE], dtype=object)

    arcs: List[ArcKey] = []
    direct_costs: List[float] = []
    # Per arc: the eq rows of its tail and head, its tail and head nodes,
    # its objective coefficient and its rationality row (-1: none).
    no_rows = np.zeros(0, dtype=np.intp)
    blocks = [(no_rows, no_rows, no_rows, no_rows, np.zeros(0), no_rows)]
    eq_row = 0
    for position, driver in enumerate(instance.drivers):
        task_map = instance.task_map(driver.driver_id)
        direct_costs.append(task_map.direct_leg.cost)
        usable, entry = task_map.usable_tasks(), task_map.entry_tasks()
        pair = task_map.exit_ok[arc_tail] & task_map.exit_ok[network.arc_head]
        tails, heads = arc_tail[pair], network.arc_head[pair]
        tail = np.concatenate((np.full(1 + entry.size, source), usable, tails))
        head = np.concatenate(([sink], entry, np.full(usable.size, sink), heads))
        coefficients = np.concatenate((
            [-task_map.direct_leg.cost],
            gains[entry] - task_map.source_leg_costs[entry],
            -task_map.sink_leg_costs[usable],
            gains[heads] - network.arc_cost[pair],
        ))

        node_row = np.empty(task_count + 2, dtype=np.intp)
        node_row[[source, sink]] = eq_row, eq_row + 1
        node_row[usable] = np.arange(eq_row + 2, eq_row + 2 + usable.size)
        eq_row += 2 + usable.size
        rationality_row = task_count + position if include_rationality else -1
        blocks.append((
            node_row[tail], node_row[head], tail, head, coefficients,
            np.full(coefficients.size, rationality_row),
        ))
        arcs.extend(zip(
            itertools.repeat(driver.driver_id), labels[tail].tolist(), labels[head].tolist()
        ))

    tail_row, head_row, tail, head, coefficients, rationality_row = (
        np.concatenate(parts) for parts in zip(*blocks)
    )
    variable_count = len(arcs)
    columns = np.repeat(np.arange(variable_count), 2)
    ones = np.ones(variable_count)
    # Flow: every arc has two eq entries, its tail's (+1 from the source,
    # -1 from a task) then its head's (+1).  Source and sink rows equal 1.
    A_eq = sparse.csr_matrix(
        (np.column_stack((np.where(tail == source, 1.0, -1.0), ones)).ravel(),
         (np.column_stack((tail_row, head_row)).ravel(), columns)),
        shape=(eq_row, variable_count),
    )
    b_eq = np.zeros(eq_row)
    b_eq[tail_row[tail == source]] = b_eq[head_row[head == sink]] = 1.0
    # An arc's ub entries: its rationality entry (-coefficient, as the 5b row
    # reads -(driver profit) <= direct cost), then, if it enters task m, its
    # entry in m's capacity row m (+1).
    ub_rows = np.column_stack((rationality_row, head)).ravel()
    ub_data = np.column_stack((-coefficients, ones)).ravel()
    kept = ub_rows >= 0
    b_ub = np.concatenate((np.ones(task_count), direct_costs if include_rationality else []))
    A_ub = sparse.csr_matrix(
        (ub_data[kept], (ub_rows[kept], columns[kept])), shape=(b_ub.size, variable_count)
    )
    return ArcFlowModel(
        instance=instance,
        objective_sense=objective,
        arcs=tuple(arcs),
        objective=coefficients,
        constant=sum(direct_costs, 0.0),
        A_eq=A_eq,
        b_eq=b_eq,
        A_ub=A_ub,
        b_ub=b_ub,
    )
