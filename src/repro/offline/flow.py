"""The exact tier: ``Z*`` for small instances, and the LP tier at shard size.

The arc-flow model of :mod:`repro.offline.formulation` is a min-cost-flow
program on each driver's task-map DAG: one unit of flow per driver from her
source to her sink, task-capacity coupling across drivers, profit-maximising
arc costs.  Both tiers below are one :meth:`ArcFlowModel.solve
<repro.offline.formulation.ArcFlowModel.solve>` and a decode, and both
return an :class:`ExactResult`.

:func:`exact_optimum` is Section VI-B's small-instance reference: "for n <=
50 and m <= 100, we can use the integer programming solvers of CPLEX or
MOSEK to calculate the exact value of the best integer solution Z*".
Neither commercial solver is available offline, so the binary program is
solved with the open-source HiGHS solver, behind a size guard.

:func:`lp_flow_optimum` serves shard-sized instances: solve the LP once, and

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
back on the shard's ``ShardResult``.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Real
from typing import Dict, Optional, Tuple

import numpy as np

from ..core.objectives import Objective
from ..core.solution import MarketSolution
from ..market.instance import MarketInstance
from ..obs import trace as obs_trace
from .dag import best_path
from .formulation import ArcFlowModel, ExactSolverError, build_arc_flow_model
from .greedy import GreedySolver
from .lagrangian import lagrangian_bound

#: Default relative-gap threshold below which ``mode="auto"`` keeps greedy.
DEFAULT_GAP_THRESHOLD = 0.02

#: Subgradient iterations for the per-shard Lagrangian bound.
DEFAULT_LAGRANGIAN_ITERATIONS = 40


def check_gap_threshold(gap_threshold: object) -> float:
    """``gap_threshold`` as a float, or ``ValueError`` unless it is a number
    ``>= 0``.  ``inf`` means "always greedy"; NaN or a negative value would
    fail every ``relative_gap(...) <= gap_threshold`` and run the LP on every
    shard."""
    if isinstance(gap_threshold, bool) or not isinstance(gap_threshold, Real):
        raise ValueError(f"gap_threshold must be a number >= 0, got {gap_threshold!r}")
    if not gap_threshold >= 0.0:
        raise ValueError(
            f"gap_threshold must be >= 0 (inf means always greedy), got {gap_threshold!r}"
        )
    return float(gap_threshold)


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
class ExactResult:
    """A solution of the arc-flow program plus its certificate.

    ``optimum`` is the shipped solution's objective value.  ``upper_bound``
    certifies it: the MILP's dual bound for :func:`exact_optimum` (within
    HiGHS's relative MIP gap of ``optimum``), ``Z*_f`` for
    :func:`lp_flow_optimum`.  ``integral`` says whether the solver's vertex
    itself was decoded (then ``optimum`` is ``Z*``), ``repaired`` whether the
    LP rounding pass ran.
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


#: Instance sizes above which :func:`exact_optimum` refuses to run by default
#: (mirroring the paper's "small-scale problems" remark).
DEFAULT_SIZE_LIMIT = (60, 150)


def exact_optimum(
    instance: MarketInstance,
    objective: Objective = Objective.DRIVERS_PROFIT,
    size_limit: Optional[Tuple[int, int]] = DEFAULT_SIZE_LIMIT,
    time_limit_s: Optional[float] = 120.0,
) -> ExactResult:
    """Solve the binary program exactly with HiGHS.

    Parameters
    ----------
    size_limit:
        ``(max_drivers, max_tasks)`` guard; pass ``None`` to lift it.
    time_limit_s:
        MILP time limit handed to HiGHS.  A run the limit stops raises
        :class:`ExactSolverError`; its incumbent is not reported as ``Z*``.
    """
    if size_limit is not None:
        max_drivers, max_tasks = size_limit
        if instance.driver_count > max_drivers or instance.task_count > max_tasks:
            raise ExactSolverError(
                f"instance with {instance.driver_count} drivers / {instance.task_count} tasks "
                f"exceeds the exact-solver size limit {size_limit}"
            )
    model = build_arc_flow_model(instance, objective=objective)
    solved = model.solve(integral=True, time_limit_s=time_limit_s)
    assignment = model.solution_to_assignment(solved.x)
    return ExactResult(
        optimum=solved.value,
        solution=MarketSolution.from_assignment(instance, assignment, objective),
        solver_status=solved.status,
        upper_bound=solved.upper_bound,
        integral=True,
        repaired=False,
        fractional_arc_count=solved.fractional_arc_count,
    )


def lp_flow_optimum(
    instance: MarketInstance,
    objective: Objective = Objective.DRIVERS_PROFIT,
    incumbent: Optional[MarketSolution] = None,
) -> ExactResult:
    """Solve the arc-flow LP and return a feasible solution + certified bound.

    Parameters
    ----------
    instance:
        The market (shard) instance; any size the LP can hold in memory.
    objective:
        Drivers' profit (Eq. 4) or social welfare (Eq. 6).
    incumbent:
        A known feasible solution (typically greedy's).  When the LP vertex
        is fractional, the repaired solution is compared against it and the
        better of the two is returned — so ``optimum >= incumbent`` always.
        ``None`` computes the greedy incumbent on demand.

    Degenerate instances (no tasks, no drivers, or no usable arcs) return the
    empty solution — matching greedy's short-circuit — and never raise; with
    no drivers the status is ``"empty"``.
    """
    model = build_arc_flow_model(instance, objective=objective)
    solved = model.solve()
    integral = solved.fractional_arc_count == 0
    if integral:
        # Integral vertex: the LP optimum *is* the exact optimum.  A DAG flow
        # with integral values decomposes into one source->sink path per
        # driver (no cycles possible), so the decode below cannot fail.
        assignment = model.solution_to_assignment(np.round(solved.x))
        solution = MarketSolution.from_assignment(instance, assignment, objective)
    else:
        # Fractional vertex: repair (LP-guided sequential rounding, module
        # docstring) and keep the better of repaired vs incumbent.
        if incumbent is None:
            incumbent = GreedySolver(objective).solve(instance).solution
        repaired = _lp_guided_rounding(instance, model, solved.x, objective)
        solution = repaired if repaired.total_value > incumbent.total_value else incumbent
    return ExactResult(
        optimum=solution.total_value,
        solution=solution,
        solver_status=solved.status,
        upper_bound=solved.upper_bound,
        integral=integral,
        repaired=not integral,
        fractional_arc_count=solved.fractional_arc_count,
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
    gap_threshold = check_gap_threshold(gap_threshold)
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
