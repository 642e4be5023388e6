"""Message types exchanged between the coordinator and shard workers.

The distributed mode in this library is simulated in-process, but the
coordinator/worker boundary is kept explicit: a shard's worker sees only
the shard's drivers and tasks (and, offline, a :class:`ShardWorkRequest`)
and answers with a :class:`ShardResult` — offline solve and streamed shard
alike — all plain serialisable records.  This keeps the solve path honest
about what information actually crosses the wire in a real deployment (each
city / district solver needs only its own drivers and tasks, never the
global instance).

:class:`FanOutReport` declares the fields the two fan-out reports share,
:class:`CoordinatorReport` (offline solve) and :class:`StreamReport`; the
run bookkeeping that measures them is shared too.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, ContextManager, Dict, Optional, Tuple

from ..core.solution import DriverPlan
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
    """What every fan-out run reports: shards, timing, executor, wire, trace."""

    shard_count: int
    total_value: float
    served_count: int
    wall_clock_s: float
    slowest_shard_s: float
    #: Worker-side seconds per shard, in shard order.
    per_shard_durations: Tuple[float, ...] = ()
    #: Task load per shard, in shard order — the raw routed count, so a
    #: degenerate shard (e.g. tasks but no drivers) still reports its real
    #: load.  Feed it — via ``ShardLoadReport.from_prior`` — into a
    #: ``LoadAwarePartitioner`` to pre-split the zones this run proved hot.
    per_shard_task_counts: Tuple[int, ...] = ()
    #: Executor policy the run used ("serial" or "process").
    executor: str = "serial"
    #: Worker-pool width used for the fan-out (1 for the serial policy).
    worker_count: int = 1
    #: Transport the run shipped payloads over ("pickle" or "shm").
    transport: str = "pickle"
    #: Bytes of the task records ``submit_shipment`` shipped for this run
    #: (the pickled records, or just their descriptors on shm); 0 for
    #: serial, where no pipe exists.  Drivers, cost model and requests ride
    #: as plain call arguments and are not counted.
    bytes_over_pipe: int = 0
    #: Array bytes shipped through shared-memory segments instead.
    shm_bytes: int = 0
    #: Shipments that reused an existing segment rather than allocating.
    segment_reuses: int = 0
    #: Shm shipments that fell back to pickling (degraded environment).
    pickle_fallbacks: int = 0
    #: Per-phase seconds spent in this run, summed over the stitched span
    #: tree (coordinator + every worker) when tracing was enabled — pairs in
    #: ``repro.obs.trace.PHASE_NAMES`` order (candidates / hungarian / lp /
    #: transport / merge); empty when tracing was off.
    phase_breakdown: Tuple[Tuple[str, float], ...] = ()
    #: Spans recorded for this run (0 when tracing was off).
    trace_span_count: int = 0

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


class _FanOutRun:
    """The bookkeeping both fan-out runs share: opening starts the clock,
    opens the run's root span on the thread's flight recorder — detached, so
    other work on the thread never nests under it — and reads the pool's
    wire counters; :meth:`close` ends the root and returns the
    :class:`FanOutReport` fields measured.
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

    def close(self) -> Dict[str, object]:
        phase_breakdown: Tuple[Tuple[str, float], ...] = ()
        trace_span_count = 0
        if self.recorder is not None:
            self.recorder.end(self.root)
            run_spans = self.recorder.subtree(self.root)
            phase_breakdown = obs_trace.phase_totals(run_spans)
            trace_span_count = len(run_spans)
        wall_clock_s = time.perf_counter() - self._start
        wire = self.pool.stats.counters()
        return {
            "wall_clock_s": wall_clock_s,
            "executor": self.pool.executor,
            "transport": self.pool.transport,
            "bytes_over_pipe": wire[0] - self._wire_mark[0],
            "shm_bytes": wire[1] - self._wire_mark[1],
            "segment_reuses": wire[2] - self._wire_mark[2],
            "pickle_fallbacks": wire[3] - self._wire_mark[3],
            "phase_breakdown": phase_breakdown,
            "trace_span_count": trace_span_count,
        }


@dataclass(frozen=True, slots=True, kw_only=True)
class CoordinatorReport(FanOutReport):
    """Summary the coordinator produces after merging every shard result."""

    per_shard_values: Tuple[float, ...]
    #: How many shards were degenerate (no tasks or no drivers) and were
    #: short-circuited by the coordinator without ever reaching a worker.
    empty_shard_count: int = 0
    #: Per-shard bound sandwiches in shard order, when the exact tier ran
    #: (``solver_name`` "lp"/"auto"); degenerate shards carry the zero record,
    #: heuristic solvers leave the tuple empty.
    per_shard_bounds: Tuple[Optional[ShardBounds], ...] = ()

    # ------------------------------------------------------------------
    # optimality-gap aggregates (exact tier only)
    # ------------------------------------------------------------------
    @property
    def bounds_reported(self) -> bool:
        """Whether the exact tier ran and every shard carries bounds."""
        return bool(self.per_shard_bounds) and all(
            b is not None for b in self.per_shard_bounds
        )

    @property
    def greedy_revenue(self) -> float:
        """Summed greedy objective value across shards (NaN without bounds).

        "Revenue" here is the objective the solvers optimise — drivers'
        profit (Eq. 4) or social welfare — matching the ROADMAP's
        "revenue with error bars" naming, not the fare total.
        """
        if not self.bounds_reported:
            return float("nan")
        return sum(b.greedy_value for b in self.per_shard_bounds)

    @property
    def lp_revenue(self) -> float:
        """Summed exact-tier objective value across shards (NaN without bounds)."""
        if not self.bounds_reported:
            return float("nan")
        return sum(b.lp_value for b in self.per_shard_bounds)

    @property
    def lagrangian_bound(self) -> float:
        """Summed per-shard Lagrangian bounds (NaN without bounds)."""
        if not self.bounds_reported:
            return float("nan")
        return sum(b.lagrangian_bound for b in self.per_shard_bounds)

    @property
    def upper_bound(self) -> float:
        """Summed per-shard certified bounds — each shard contributes its
        tightest (min of LP and Lagrangian), so the sum bounds the sharded
        optimum (NaN without bounds)."""
        if not self.bounds_reported:
            return float("nan")
        return sum(b.upper_bound for b in self.per_shard_bounds)

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


@dataclass(frozen=True, slots=True, kw_only=True)
class StreamReport(FanOutReport):
    """Summary of one streamed solve on the persistent worker pool."""

    batch_count: int
    rejected_count: int
    #: Skew-aware split/merge actions taken between windows.
    rebalance_count: int = 0
    #: Sum of publish->pickup waits over all served tasks (simulated time),
    #: merged from the per-shard totals in shard order.
    wait_total_s: float = 0.0

    @property
    def mean_wait_s(self) -> float:
        """Mean publish->pickup wait of a served task (0 when nothing was
        served) — the latency counterpart of ``total_value``/``served_count``
        in per-scenario comparisons."""
        if self.served_count <= 0:
            return 0.0
        return self.wait_total_s / self.served_count
