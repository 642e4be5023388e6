"""Exact tier at scale — per-shard LP / min-cost-flow solver (ROADMAP item).

The arc-flow model of :mod:`repro.offline.formulation` is a min-cost-flow
program on each driver's task-map DAG: one unit of flow per driver from her
source to her sink, task-capacity coupling across drivers, profit-maximising
arc costs.  :mod:`repro.offline.exact` solves it as a MILP but refuses past
toy sizes; :mod:`repro.offline.relaxation` solves the LP but returns only the
bound.  This module closes the gap for shard-sized instances: solve the LP
once, and

* **certify** the solution when the LP optimum lands on an integral vertex —
  the per-driver subproblems are path polytopes over DAGs, so an integral
  flow decodes into node-disjoint paths and *is* the exact optimum ``Z*``;
* **repair** a fractional optimum into a feasible solution with a documented
  rounding pass (below), never returning anything worse than the greedy
  incumbent;
* always return the LP value ``Z*_f`` as a certified upper bound, so every
  solution ships with an optimality gap.

Feasibility repair (LP-guided sequential rounding).  Fractional vertices are
rare (the per-driver polytopes are integral; only the task-capacity coupling
can fractionate) and mild when they happen, so a light rounding pass
suffices: order drivers by their share of the LP objective (descending,
fleet order breaking ties — deterministic), then re-run the exact per-driver
DAG dynamic program (:func:`repro.offline.dag.best_path`) restricted to the
tasks the LP routed through that driver and not yet claimed by an earlier
driver.  The result is feasible by construction (every chosen path is a real
task-map path over disjoint tasks); if it still trails the greedy incumbent,
the incumbent is returned instead — so the sandwich invariant

    greedy value  <=  LP-tier value  <=  Z*_f  <=  Lagrangian bound

holds unconditionally (the last inequality by weak duality, see
:mod:`repro.offline.lagrangian`).

:func:`solve_exact_tier` packages the whole tier for the distributed
coordinator: greedy incumbent, Lagrangian bound, optional gap-gated LP
(``mode="auto"`` skips the LP on shards where greedy is already within the
gap threshold of the bound), and a :class:`ShardBounds` record that travels
back over the existing ``ShardWorkResult`` wire format.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core.objectives import Objective
from ..core.solution import MarketSolution
from ..market.instance import MarketInstance
from ..obs import trace as obs_trace
from .dag import best_path
from .exact import ExactSolverError
from .formulation import ArcFlowModel, build_arc_flow_model
from .greedy import GreedySolver
from .lagrangian import lagrangian_bound

#: Arc values closer to an integer than this are treated as integral.
INTEGRALITY_TOL = 1e-6

#: Default relative-gap threshold below which ``mode="auto"`` keeps greedy.
DEFAULT_GAP_THRESHOLD = 0.02

#: Subgradient iterations for the per-shard Lagrangian bound.
DEFAULT_LAGRANGIAN_ITERATIONS = 40


class FlowSolverError(ExactSolverError):
    """Raised when the LP solver itself fails (never for empty/degenerate
    instances, which short-circuit like greedy does)."""


def relative_gap(value: float, bound: float) -> float:
    """Relative optimality gap of ``value`` against an upper ``bound``.

    Clamped at 0 so floating-point noise (value a few ulp above the bound)
    never reports a negative gap; gap >= 0 is parity contract 17's invariant.
    """
    return max(0.0, bound - value) / max(abs(bound), 1e-9)


@dataclass(frozen=True, slots=True)
class ShardBounds:
    """The bound sandwich for one shard (or one whole instance).

    ``greedy_value <= lp_value <= min(lp_bound, lagrangian_bound)`` — all of
    them *objective* values (drivers' profit or social welfare, Eq. 4/6), the
    quantity the solvers optimise.  ``chosen_solver`` records which tier
    produced the shipped solution (``"greedy"`` when ``mode="auto"`` decided
    the gap was already small enough to skip the LP; then ``lp_value`` simply
    repeats the greedy value and ``lp_bound`` the Lagrangian bound).
    """

    greedy_value: float
    lp_value: float
    lp_bound: float
    lagrangian_bound: float
    chosen_solver: str
    lp_ran: bool
    lp_integral: bool
    lp_repaired: bool

    @classmethod
    def zero(cls, chosen_solver: str = "greedy") -> "ShardBounds":
        """Bounds of a degenerate (no tasks / no drivers) shard."""
        return cls(
            greedy_value=0.0,
            lp_value=0.0,
            lp_bound=0.0,
            lagrangian_bound=0.0,
            chosen_solver=chosen_solver,
            lp_ran=False,
            lp_integral=True,
            lp_repaired=False,
        )

    @property
    def upper_bound(self) -> float:
        """The tightest certified upper bound available."""
        return min(self.lp_bound, self.lagrangian_bound)

    @property
    def optimality_gap(self) -> float:
        """Relative gap of the shipped (LP-tier) solution."""
        return relative_gap(self.lp_value, self.upper_bound)

    @property
    def greedy_gap(self) -> float:
        """Relative gap of the greedy incumbent — the scenario "error bar"."""
        return relative_gap(self.greedy_value, self.upper_bound)

    def as_dict(self) -> Dict[str, object]:
        return {
            "greedy_value": self.greedy_value,
            "lp_value": self.lp_value,
            "lp_bound": self.lp_bound,
            "lagrangian_bound": self.lagrangian_bound,
            "upper_bound": self.upper_bound,
            "optimality_gap": self.optimality_gap,
            "greedy_gap": self.greedy_gap,
            "chosen_solver": self.chosen_solver,
            "lp_ran": self.lp_ran,
            "lp_integral": self.lp_integral,
            "lp_repaired": self.lp_repaired,
        }


@dataclass(frozen=True)
class FlowResult:
    """LP-tier solution plus its certificate.

    The first three fields mirror :class:`repro.offline.exact.ExactResult`
    so downstream consumers treat both tiers interchangeably; the rest is the
    certificate: ``upper_bound`` is ``Z*_f``, ``integral`` says whether the
    LP vertex itself was the optimum (then ``optimum == upper_bound`` up to
    float noise), ``repaired`` whether the rounding pass ran.
    """

    optimum: float
    solution: MarketSolution
    solver_status: str
    upper_bound: float
    integral: bool
    repaired: bool
    fractional_arc_count: int

    @property
    def optimality_gap(self) -> float:
        return relative_gap(self.optimum, self.upper_bound)


def lp_flow_optimum(
    instance: MarketInstance,
    objective: Objective = Objective.DRIVERS_PROFIT,
    include_rationality: bool = True,
    incumbent: Optional[MarketSolution] = None,
) -> FlowResult:
    """Solve the arc-flow LP and return a feasible solution + certified bound.

    Parameters
    ----------
    instance:
        The market (shard) instance; any size the LP can hold in memory.
    objective:
        Drivers' profit (Eq. 4) or social welfare (Eq. 6).
    include_rationality:
        Keep the per-driver individual-rationality rows (5b).
    incumbent:
        A known feasible solution (typically greedy's).  When the LP vertex
        is fractional, the repaired solution is compared against it and the
        better of the two is returned — so ``optimum >= incumbent`` always.
        ``None`` computes the greedy incumbent on demand.

    Degenerate instances (no tasks, no drivers, or no usable arcs) return the
    empty solution with status ``"empty"`` — matching greedy's short-circuit —
    and never raise.
    """
    model = build_arc_flow_model(
        instance, objective=objective, include_rationality=include_rationality
    )
    if model.variable_count == 0:
        return FlowResult(
            optimum=0.0,
            solution=MarketSolution.empty(instance, objective),
            solver_status="empty",
            upper_bound=0.0,
            integral=True,
            repaired=False,
            fractional_arc_count=0,
        )

    upper_bound, values, message = model.solve_lp()
    if upper_bound is None:
        raise FlowSolverError(f"arc-flow LP failed: {message}")
    rounded = np.round(values)
    fractional = np.abs(values - rounded)
    fractional_count = int(np.sum(fractional > INTEGRALITY_TOL))

    if fractional_count == 0:
        # Integral vertex: the LP optimum *is* the exact optimum.  A DAG flow
        # with integral values decomposes into one source->sink path per
        # driver (no cycles possible), so the decode below cannot fail.
        assignment = model.solution_to_assignment(rounded)
        solution = MarketSolution.from_assignment(instance, assignment, objective)
        return FlowResult(
            optimum=solution.total_value,
            solution=solution,
            solver_status=message,
            upper_bound=upper_bound,
            integral=True,
            repaired=False,
            fractional_arc_count=0,
        )

    # Fractional vertex: repair (LP-guided sequential rounding, module
    # docstring) and keep the better of repaired vs incumbent.
    if incumbent is None:
        incumbent = GreedySolver(objective).solve(instance).solution
    repaired = _lp_guided_rounding(instance, model, values, objective)
    chosen = repaired if repaired.total_value > incumbent.total_value else incumbent
    return FlowResult(
        optimum=chosen.total_value,
        solution=chosen,
        solver_status=message,
        upper_bound=upper_bound,
        integral=False,
        repaired=True,
        fractional_arc_count=fractional_count,
    )


def _lp_guided_rounding(
    instance: MarketInstance,
    model: ArcFlowModel,
    values: np.ndarray,
    objective: Objective,
) -> MarketSolution:
    """Round a fractional LP vertex into a feasible solution.

    Deterministic: driver order is (descending LP objective share, fleet
    position), and within a driver the exact DAG DP picks the path.
    """
    tol = 1e-9
    task_count = instance.task_count
    support: Dict[str, np.ndarray] = {}
    share: Dict[str, float] = {}
    for arc, value, coefficient in zip(model.arcs, values, model.objective):
        if value <= tol:
            continue
        driver_id, _tail, head = arc
        share[driver_id] = share.get(driver_id, 0.0) + float(coefficient) * float(value)
        if not isinstance(head, str):  # head is a task index (not the sink)
            mask = support.get(driver_id)
            if mask is None:
                mask = np.zeros(task_count, dtype=bool)
                support[driver_id] = mask
            mask[int(head)] = True

    fleet_position = {d.driver_id: i for i, d in enumerate(instance.drivers)}
    order = sorted(
        support, key=lambda d: (-share.get(d, 0.0), fleet_position[d])
    )

    use_valuation = objective.uses_valuation
    available = np.ones(task_count, dtype=bool)
    assignment: Dict[str, Tuple[int, ...]] = {}
    for driver_id in order:
        allowed = available & support[driver_id]
        if not allowed.any():
            continue
        result = best_path(
            instance.task_map(driver_id), available=allowed, use_valuation=use_valuation
        )
        if result.profit > 0.0:
            assignment[driver_id] = result.path
            available[list(result.path)] = False
    return MarketSolution.from_assignment(instance, assignment, objective)


def solve_exact_tier(
    instance: MarketInstance,
    *,
    objective: Objective = Objective.DRIVERS_PROFIT,
    mode: str = "lp",
    gap_threshold: float = DEFAULT_GAP_THRESHOLD,
    lagrangian_iterations: int = DEFAULT_LAGRANGIAN_ITERATIONS,
) -> Tuple[MarketSolution, ShardBounds]:
    """Run the full exact tier on one (shard) instance.

    ``mode="lp"`` always solves the LP; ``mode="auto"`` first checks the
    greedy incumbent against the (cheap, DP-only) Lagrangian bound and keeps
    greedy when its relative gap is already ``<= gap_threshold`` — the
    "greedy is good enough" auto-selection of the ROADMAP item.

    Returns the shipped solution and the :class:`ShardBounds` sandwich.
    """
    if mode not in ("lp", "auto"):
        raise ValueError(f"unknown exact-tier mode {mode!r}")
    if instance.task_count == 0 or instance.driver_count == 0:
        return MarketSolution.empty(instance, objective), ShardBounds.zero()

    with obs_trace.span("greedy"):
        greedy = GreedySolver(objective).solve(instance).solution
    greedy_value = greedy.total_value
    with obs_trace.span("lagrangian", iterations=lagrangian_iterations):
        lagrangian = lagrangian_bound(
            instance,
            objective,
            iterations=lagrangian_iterations,
            target_value=greedy_value,
        ).upper_bound

    if mode == "auto" and relative_gap(greedy_value, lagrangian) <= gap_threshold:
        bounds = ShardBounds(
            greedy_value=greedy_value,
            lp_value=greedy_value,
            lp_bound=lagrangian,
            lagrangian_bound=lagrangian,
            chosen_solver="greedy",
            lp_ran=False,
            lp_integral=False,
            lp_repaired=False,
        )
        return greedy, bounds

    flow = lp_flow_optimum(instance, objective, incumbent=greedy)
    solution = flow.solution if flow.optimum >= greedy_value else greedy
    bounds = ShardBounds(
        greedy_value=greedy_value,
        lp_value=solution.total_value,
        lp_bound=flow.upper_bound,
        lagrangian_bound=lagrangian,
        chosen_solver="lp",
        lp_ran=True,
        lp_integral=flow.integral,
        lp_repaired=flow.repaired,
    )
    return solution, bounds
