"""Message types exchanged between the coordinator and shard workers.

The distributed mode in this library is simulated in-process, but the
coordinator/worker boundary is kept explicit: a shard's worker sees only
the shard's drivers and tasks (and, offline, a :class:`ShardWorkRequest`)
and answers with a :class:`ShardResult` — offline solve and streamed shard
alike — all plain serialisable records.  This keeps the solve path honest
about what information actually crosses the wire in a real deployment (each
city / district solver needs only its own drivers and tasks, never the
global instance).

A whole fan-out run — an offline solve or a finished stream — answers with
one :class:`DistributedResult` carrying one :class:`FanOutReport`, which
the run's bookkeeping (:class:`_FanOutRun`) builds in one place.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, ContextManager, Dict, Iterator, Optional, Sequence, Tuple

from ..core.solution import DriverPlan, MarketSolution
from ..geo import BoundingBox
from ..obs import trace as obs_trace
from ..offline.flow import ShardBounds, relative_gap

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .pool import PersistentWorkerPool


@dataclass(frozen=True, slots=True)
class ShardWorkRequest:
    """Ask one worker to solve one shard."""

    shard_id: int
    driver_count: int
    task_count: int
    #: Which solver the worker should run ("greedy", "nearest", "maxMargin",
    #: "lp", "auto").
    solver_name: str
    #: Seed for the shard's stochastic tie-breaking (random/nearest dispatch).
    #: The coordinator derives it deterministically from its base seed and the
    #: shard id, so either executor — serial or process pool —
    #: hands every shard the same seed and the merged solution is identical.
    seed: int = 0
    #: Relative-gap knob for the exact tier: ``solver_name="auto"`` keeps the
    #: greedy solution on shards whose gap against the Lagrangian bound is
    #: already below this threshold (ignored by the other solvers).
    gap_threshold: float = 0.02
    #: Ask the worker to record flight-recorder spans while solving and ship
    #: them back on :attr:`ShardResult.spans`.  Solvers never read this —
    #: parity contract 19 (traced == untraced merges) is structural.
    trace: bool = False


@dataclass(frozen=True, slots=True)
class ShardResult:
    """A shard worker's answer: an offline shard solve or a drained shard
    stream."""

    #: One plan per shard driver, in shard fleet order and shard-local task
    #: indices, with the profit the shard solver priced (empty for a
    #: degenerate shard, which the coordinator answers without a solve).
    #: Under horizon dispatch an idle driver who was repositioned carries
    #: that move's cost as a negative profit.
    plans: Tuple[DriverPlan, ...]
    #: Shard-local indices of the orders the shard's simulator could not
    #: serve (empty for greedy and the exact tier, which reject nothing).
    rejected_tasks: Tuple[int, ...] = ()
    #: Worker-side seconds: the solve, or a stream's appends + final flush.
    elapsed_s: float = 0.0
    #: Bound sandwich computed by the exact tier (``solver_name`` "lp"/"auto");
    #: ``None`` for every other solver and for streams.
    bounds: Optional[ShardBounds] = None
    #: Sum of publish->pickup waits over the shard's served tasks (simulated
    #: time, not wall clock), computed worker-side from the same solution as
    #: the plans, so it is executor-independent like everything else.
    wait_total_s: float = 0.0
    #: Flight-recorder spans collected worker-side (a solve, or a shard
    #: stream's whole life), as plain ``repro.obs.trace.SpanTuple`` tuples
    #: (pickle-safe; empty when tracing was off).  The coordinator stitches
    #: them into its own span tree via ``TraceRecorder.adopt``.
    spans: Tuple = ()

    @property
    def total_value(self) -> float:
        return sum(plan.profit for plan in self.plans)

    @property
    def served_count(self) -> int:
        return sum(plan.task_count for plan in self.plans)


@dataclass(frozen=True, slots=True, kw_only=True)
class FanOutReport:
    """What a fan-out run reports — an offline solve and a stream alike:
    shards, outcome, timing, executor, wire and trace.  Every per-shard
    series is in shard order; a shard no worker answered (no drivers, or
    offline no tasks) counts with zeros."""

    shard_count: int
    total_value: float
    served_count: int
    #: ``len(solution.rejected_tasks)`` (0 for greedy and the exact tier).
    rejected_count: int
    wall_clock_s: float
    slowest_shard_s: float
    #: Objective value each shard's plans earned.
    per_shard_values: Tuple[float, ...]
    #: Worker-side seconds per shard.
    per_shard_durations: Tuple[float, ...]
    #: Task load per shard — the raw routed count, so a degenerate shard
    #: (e.g. tasks but no drivers) still reports its real load.  Feed it —
    #: via ``ShardLoadReport.from_prior`` — into a ``LoadAwarePartitioner``
    #: to pre-split the zones this run proved hot.
    per_shard_task_counts: Tuple[int, ...]
    #: Shards no worker answered: no drivers, or (offline) no tasks.
    empty_shard_count: int
    #: Sum of publish->pickup waits over all served tasks (simulated time),
    #: summed from the per-shard totals in shard order.
    wait_total_s: float
    #: Executor policy the run used ("serial" or "process").
    executor: str
    #: Pool slots that ran a shard (at least 1, at most the pool's width).
    worker_count: int
    #: Transport the run shipped payloads over ("pickle" or "shm").
    transport: str
    #: Bytes of the task records ``submit_shipment`` shipped for this run
    #: (the pickled records, or just their descriptors on shm); 0 for
    #: serial, where no pipe exists.  Drivers, cost model and requests ride
    #: as plain call arguments and are not counted.
    bytes_over_pipe: int
    #: Array bytes shipped through shared-memory segments instead.
    shm_bytes: int
    #: Shipments that reused an existing segment rather than allocating.
    segment_reuses: int
    #: Shm shipments that fell back to pickling (degraded environment).
    pickle_fallbacks: int
    #: Per-phase seconds spent in this run, summed over the stitched span
    #: tree (coordinator + every worker) when tracing was enabled — pairs in
    #: ``repro.obs.trace.PHASE_NAMES`` order (candidates / hungarian / lp /
    #: transport / merge); empty when tracing was off.
    phase_breakdown: Tuple[Tuple[str, float], ...]
    #: Spans recorded for this run (0 when tracing was off).
    trace_span_count: int
    #: Per-shard bound sandwiches when the exact tier ran ("lp"/"auto"); a
    #: degenerate shard carries the zero record.  Empty for every other run.
    per_shard_bounds: Tuple[Optional[ShardBounds], ...] = ()
    #: Arrival batches a stream was fed (0 offline).
    batch_count: int = 0
    #: Skew-aware split/merge actions a stream took between windows.
    rebalance_count: int = 0

    @property
    def phase_seconds(self) -> Dict[str, float]:
        """``phase_breakdown`` as a dict (empty when tracing was off)."""
        return dict(self.phase_breakdown)

    @property
    def critical_path_speedup(self) -> float:
        """Idealised speed-up if shards ran fully in parallel: total worker
        time divided by the slowest shard's time."""
        if self.slowest_shard_s <= 0:
            return 1.0
        return sum(self.per_shard_durations) / self.slowest_shard_s

    # ------------------------------------------------------------------
    # optimality-gap aggregates (exact tier only)
    # ------------------------------------------------------------------
    @property
    def bounds_reported(self) -> bool:
        """Whether the exact tier ran and every shard carries bounds."""
        return bool(self.per_shard_bounds) and all(
            b is not None for b in self.per_shard_bounds
        )

    def _bound_total(self, name: str) -> float:
        """One ``ShardBounds`` field summed over the shards (NaN without
        bounds)."""
        if not self.bounds_reported:
            return float("nan")
        return sum(getattr(b, name) for b in self.per_shard_bounds)

    @property
    def greedy_revenue(self) -> float:
        """Summed greedy objective value across shards (NaN without bounds).

        "Revenue" here is the objective the solvers optimise — drivers'
        profit (Eq. 4) or social welfare — matching the ROADMAP's
        "revenue with error bars" naming, not the fare total.
        """
        return self._bound_total("greedy_value")

    @property
    def lp_revenue(self) -> float:
        """Summed exact-tier objective value across shards (NaN without bounds)."""
        return self._bound_total("lp_value")

    @property
    def lagrangian_bound(self) -> float:
        """Summed per-shard Lagrangian bounds (NaN without bounds)."""
        return self._bound_total("lagrangian_bound")

    @property
    def upper_bound(self) -> float:
        """Summed per-shard certified bounds — each shard contributes its
        tightest (min of LP and Lagrangian), so the sum bounds the sharded
        optimum (NaN without bounds)."""
        return self._bound_total("upper_bound")

    @property
    def optimality_gap(self) -> float:
        """Relative gap of the shipped solution against the certified bound,
        clamped >= 0 (NaN without bounds)."""
        if not self.bounds_reported:
            return float("nan")
        return relative_gap(self.lp_revenue, self.upper_bound)

    @property
    def greedy_gap(self) -> float:
        """Relative gap of the greedy incumbent against the certified bound —
        the scenario-level "error bar" (NaN without bounds)."""
        if not self.bounds_reported:
            return float("nan")
        return relative_gap(self.greedy_revenue, self.upper_bound)


@dataclass(frozen=True)
class DistributedResult:
    """A fan-out run's answer: the merged solution, the run's report and
    the shard regions it ran over — an offline solve and a finished stream
    alike."""

    solution: MarketSolution
    report: FanOutReport
    #: Shard regions in shard order: the partitioner's box groups offline,
    #: a stream's final (post-rebalance) regions.  A coordinator over
    #: ``LoadAwarePartitioner(region, result, rounds=0)`` runs over exactly
    #: these regions — to reuse a rebalanced partition, or to pin
    #: determinism.
    regions: Tuple[Tuple[BoundingBox, ...], ...]

    @property
    def rejected_tasks(self) -> Tuple[int, ...]:
        """Global indices of the orders no shard served."""
        return self.solution.rejected_tasks


class _FanOutRun:
    """The bookkeeping of one fan-out run: opening starts the clock, opens
    the run's root span on the thread's flight recorder — detached, so
    other work on the thread never nests under it — and reads the pool's
    wire counters; :meth:`close` ends the root and builds the run's one
    :class:`FanOutReport`.
    """

    __slots__ = ("pool", "recorder", "root", "_start", "_wire_mark")

    def __init__(
        self, pool: "PersistentWorkerPool", root_name: str, **root_attrs: object
    ) -> None:
        self._start = time.perf_counter()
        self.pool = pool
        self._wire_mark = pool.stats.counters()
        self.recorder = obs_trace.active_recorder()
        self.root = obs_trace.DROPPED
        if self.recorder is not None:
            self.root = self.recorder.begin(root_name, **root_attrs)
            self.recorder.detach(self.root)

    def resumed(self) -> ContextManager[None]:
        """Re-enter the root span for one block of the run's own work."""
        if self.recorder is None:
            return nullcontext()
        return self.recorder.resume(self.root)

    def adopt(self, spans: Tuple, **root_attrs: object) -> None:
        """Graft one worker's exported spans under the run's root span."""
        if self.recorder is not None and spans:
            self.recorder.adopt(spans, parent_id=self.root, **root_attrs)

    @contextmanager
    def merging(self) -> Iterator[None]:
        """The run's ``merge`` span under its root, on the run's own recorder:
        a stream may finish on another thread than the one that opened it."""
        if self.recorder is None:
            yield
            return
        merge = self.recorder.begin("merge", parent_id=self.root)
        try:
            yield
        finally:
            self.recorder.end(merge)

    def close(
        self,
        solution: MarketSolution,
        shards: Sequence[Tuple[int, Optional[ShardResult]]],
        slots_used: int,
        **extras: object,
    ) -> FanOutReport:
        """End the run and report it: ``shards`` pairs each shard's routed
        task count with its :class:`ShardResult` (``None`` where no worker
        answered), ``slots_used`` counts the shards placed on pool slots and
        ``extras`` are the fields only one kind of run fills."""
        phase_breakdown: Tuple[Tuple[str, float], ...] = ()
        trace_span_count = 0
        if self.recorder is not None:
            self.recorder.end(self.root)
            run_spans = self.recorder.subtree(self.root)
            phase_breakdown = obs_trace.phase_totals(run_spans)
            trace_span_count = len(run_spans)
        wall_clock_s = time.perf_counter() - self._start
        wire = self.pool.stats.counters()
        results = [result for _, result in shards]
        durations = tuple(0.0 if r is None else r.elapsed_s for r in results)
        return FanOutReport(
            shard_count=len(shards),
            total_value=solution.total_value,
            served_count=solution.served_count,
            rejected_count=len(solution.rejected_tasks),
            wall_clock_s=wall_clock_s,
            slowest_shard_s=max(durations, default=0.0),
            per_shard_values=tuple(0.0 if r is None else r.total_value for r in results),
            per_shard_durations=durations,
            per_shard_task_counts=tuple(count for count, _ in shards),
            empty_shard_count=sum(r is None for r in results),
            wait_total_s=sum(r.wait_total_s for r in results if r is not None),
            executor=self.pool.executor,
            worker_count=max(1, min(self.pool.worker_count, slots_used)),
            transport=self.pool.transport,
            bytes_over_pipe=wire[0] - self._wire_mark[0],
            shm_bytes=wire[1] - self._wire_mark[1],
            segment_reuses=wire[2] - self._wire_mark[2],
            pickle_fallbacks=wire[3] - self._wire_mark[3],
            phase_breakdown=phase_breakdown,
            trace_span_count=trace_span_count,
            **extras,
        )
