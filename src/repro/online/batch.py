"""Batched (rolling-horizon) online dispatch.

The paper's conclusion lists "solving the online problem with non-heuristic
algorithms" as future work.  The standard industry step in that direction is
*batched matching*: instead of dispatching every order the instant it
arrives, the platform accumulates the orders of a short window (Uber and Didi
use a few seconds to a minute) and solves one assignment problem per window,
which removes most of the myopia of per-order rules at a negligible latency
cost.

:class:`BatchedSimulator` implements that policy on top of the same driver
state as the per-order simulator:

1. orders are grouped into windows of ``window_s`` seconds by publish time;
2. at the end of each window the feasible (driver, order) pairs are priced by
   the marginal value ``delta_{n,m}`` (Eq. 14 of the paper) — one
   :meth:`~repro.online.candidates.CandidateKernel.candidates_for_window`
   matrix pass, the only way a window gets its candidates (the kernel's
   scalar loop is a test oracle, not a configuration);
3. a maximum-weight assignment over those pairs is solved with the Hungarian
   algorithm (``scipy.optimize.linear_sum_assignment``).  The assignment
   matrix is shrunk first: the candidate kernel's spatial index restricts the
   driver axis to the window's union of reach, and only drivers with at least
   one feasible pair become columns — both strict supersets of the feasible
   pairs, so the solve sees every real option at a fraction of the
   ``(tasks x fleet)`` width;
4. drivers advance exactly as in the per-order simulator, and unassigned
   orders whose pickup deadline has not passed roll over into the next
   window.

The simulator also runs *live*: :meth:`BatchedSimulator.run_stream` consumes
publish-ordered arrival batches through a
:class:`~repro.market.streaming.StreamingMarketInstance`, appending each
batch incrementally (never rebuilding task maps) and dispatching the same
windows :meth:`run` would — :func:`window_batches` produces exactly that
grouping, and the stream/replay parity test pins the equivalence.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np
from scipy import optimize

from ..core.solution import MarketSolution
from ..market.instance import MarketInstance
from ..market.task import Task
from ..obs import trace as obs_trace
from .candidates import CandidateKernel
from .forecast import publish_slot
from .horizon import LOOKAHEAD_WEIGHT, LookaheadPlanner
from .state import Candidate, DriverState

#: Cost assigned to infeasible pairs in the assignment matrix.
_INFEASIBLE = 1e12


@dataclass(frozen=True, slots=True)
class BatchConfig:
    """Knobs of the batched dispatcher.

    The dispatch semantics are fixed: a pair is admissible only with a
    positive marginal value (individual rationality, constraint 5b), a
    driver waits at the pickup for the recorded start and is occupied for
    the recorded ride window (trace replay), and an order left unassigned
    retries in later windows until its pickup deadline passes.
    """

    #: Length of the accumulation window in seconds.
    window_s: float = 60.0
    #: Rolling-horizon lookahead (see :mod:`repro.online.horizon`).  The
    #: dispatcher solves a *control window* of ``horizon`` dispatch windows
    #: (the current one exactly, the next ``horizon - 1`` in expectation via
    #: the demand forecast) plus ``overlap`` coarser blocks of
    #: ``OVERLAP_FACTOR`` windows each, and commits only the control window.
    #: ``horizon=1`` is the exact myopic dispatcher — no forecaster is even
    #: constructed, so the outputs are bit-identical to today's.
    horizon: int = 1
    overlap: int = 0
    #: Demand forecaster: ``"ewma"`` (causal, works on live streams) or
    #: ``"oracle"`` (true future counts; replay-only, used by tests).
    forecast: str = "ewma"

    def __post_init__(self) -> None:
        if self.window_s <= 0:
            raise ValueError("window_s must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.overlap < 0:
            raise ValueError("overlap must be >= 0")
        if self.forecast not in ("ewma", "oracle"):
            raise ValueError("forecast must be 'ewma' or 'oracle'")


def _slot_groups(
    tasks: Sequence[Task], window_s: float, *, keep_unpublishable: bool = False
) -> Tuple[Optional[float], List[Tuple[int, List[int]]]]:
    """``(first_publish, [(slot, task indices), ...])`` in slot order, each
    group in publish order (input order on ties) — the one grouping behind
    :func:`window_batches`, :func:`stream_schedule` and
    :meth:`BatchedSimulator.run`, so all three cut the same windows.

    Slots are anchored at the first *publishable* task.  With none there is
    no anchor (``None``) and the tasks kept, if any, form one group.
    """
    if window_s <= 0:
        raise ValueError("window_s must be positive")
    order = sorted(
        (m for m, task in enumerate(tasks) if keep_unpublishable or task.is_publishable),
        key=lambda m: tasks[m].publish_ts,
    )
    first_publish = next(
        (tasks[m].publish_ts for m in order if tasks[m].is_publishable), None
    )
    if first_publish is None:
        return None, [(0, order)] if order else []
    groups: Dict[int, List[int]] = {}
    for m in order:
        slot = publish_slot(tasks[m].publish_ts, first_publish, window_s)
        groups.setdefault(slot, []).append(m)
    return first_publish, sorted(groups.items())


def window_batches(tasks: Iterable[Task], window_s: float) -> List[List[Task]]:
    """Group publishable tasks into publish-ordered arrival batches, one per
    dispatch window.

    Feeding these batches to :meth:`BatchedSimulator.run_stream` dispatches
    exactly the windows :meth:`BatchedSimulator.run` derives from the full
    task set, which makes replay/stream parity testable.
    """
    tasks = tuple(tasks)
    _first, groups = _slot_groups(tasks, window_s)
    return [[tasks[m] for m in indices] for _slot, indices in groups]


def stream_schedule(tasks: Iterable[Task], window_s: float) -> List[List[Task]]:
    """Like :func:`window_batches`, but carrying **every** task.

    Non-publishable tasks never dispatch, but a streamed instance must still
    contain them so its metrics (serve rate, tasks-per-driver denominators)
    match a replay over the full task set.  They ride along in the batch of
    their publish slot (anchored at the first *publishable* task, exactly as
    :func:`window_batches` anchors the windows), so the publishable
    subsequence — and therefore every dispatch decision — is identical to
    feeding :func:`window_batches` directly.
    """
    tasks = tuple(tasks)
    _first, groups = _slot_groups(tasks, window_s, keep_unpublishable=True)
    return [[tasks[m] for m in indices] for _slot, indices in groups]


class BatchedSimulator:
    """Rolling-horizon batched dispatch over a market instance.

    ``instance`` may be a plain :class:`~repro.market.instance.MarketInstance`
    (replay of a known task set via :meth:`run`) or a
    :class:`~repro.market.streaming.StreamingMarketInstance` (live
    consumption of arrival batches via :meth:`run_stream`).
    """

    def __init__(self, instance: MarketInstance, config: BatchConfig | None = None) -> None:
        self.instance = instance
        self.config = config or BatchConfig()
        self._cost_model = instance.cost_model
        self._kernel: Optional[CandidateKernel] = None
        self._states: Dict[str, DriverState] = {}
        self._pending: List[int] = []
        self._rejected: List[int] = []
        self._streaming = False
        self._lookahead = None

    # ------------------------------------------------------------------
    # main loops
    # ------------------------------------------------------------------
    def run(self) -> MarketSolution:
        """Simulate the full (already known) order stream window by window."""
        self._begin()
        first_publish, groups = _slot_groups(self.instance.tasks, self.config.window_s)
        for slot, arrivals in groups:
            self._step_window(first_publish, slot, arrivals)
        return self._finish()

    def run_stream(self, arrival_batches: Iterable[Sequence[Task]]) -> MarketSolution:
        """Consume a live order stream through a streaming instance.

        Each batch is appended to the instance incrementally
        (``append_tasks``) and mirrored into the candidate kernel.  Windows
        close on a *watermark*: a publish slot is dispatched only once a
        later-slot order proves it complete (or the stream ends), so any
        publish-ordered batching — window-aligned, one order per batch, or
        anything between — dispatches exactly the windows :meth:`run`
        derives from the full task set.  Batches must arrive in publish-time
        order; an order publishing before an already-dispatched window
        raises.
        """
        self.stream_begin()
        for batch in arrival_batches:
            self.stream_feed(batch)
        return self.stream_end()

    # ------------------------------------------------------------------
    # incremental streaming API
    # ------------------------------------------------------------------
    def stream_begin(self) -> None:
        """Start consuming a live stream batch by batch.

        The incremental triple ``stream_begin`` / :meth:`stream_feed` /
        :meth:`stream_end` is exactly :meth:`run_stream` with the loop turned
        inside out, so callers that receive batches one at a time (the
        distributed shard workers) run the identical code path — the
        stream==replay parity contract extends to them for free.
        """
        if getattr(self.instance, "append_tasks", None) is None:
            raise TypeError(
                "run_stream needs a streaming instance with append_tasks(); "
                "use StreamingMarketInstance (or run() for a static instance)"
            )
        if self.config.horizon > 1 and self.config.forecast == "oracle":
            raise ValueError(
                "forecast='oracle' reads the full task table and cannot run "
                "on a live stream (the future is unknown at stream_begin); "
                "use forecast='ewma'"
            )
        self._begin()
        self._streaming = True
        self._stream_first_publish: Optional[float] = None
        self._stream_watermark = float("-inf")  # highest publish time accepted
        self._stream_open_slot: Optional[int] = None
        self._stream_open_arrivals: List[int] = []

    def _stream_flush(self) -> None:
        if not self._stream_open_arrivals:
            return
        self._step_window(
            self._stream_first_publish, self._stream_open_slot, self._stream_open_arrivals
        )
        self._stream_open_arrivals = []

    def stream_feed(self, batch: Sequence[Task]) -> int:
        """Append one publish-ordered arrival batch and dispatch every window
        the watermark proves complete.  Returns the number of tasks appended.
        """
        if not self._streaming:
            raise RuntimeError("call stream_begin() before stream_feed()")
        batch = tuple(batch)
        if not batch:
            return 0
        # In publish order (input order on ties).  Only the earliest can be
        # behind the watermark, and it is refused before anything is
        # appended: instance, kernel and open window stay as they were.
        arrivals = sorted(
            (task.publish_ts, offset)
            for offset, task in enumerate(batch)
            if task.is_publishable
        )
        if arrivals and arrivals[0][0] < self._stream_watermark:
            publish_ts, offset = arrivals[0]
            raise ValueError(
                "arrival batches must be publish-ordered: task "
                f"{batch[offset].task_id!r} publishes at {publish_ts} "
                f"behind the stream watermark {self._stream_watermark}"
            )
        window_s = self.config.window_s
        start_index = self.instance.task_count
        self.instance.append_tasks(batch)
        self._kernel.extend_tasks()
        if not arrivals:
            return len(batch)
        if self._stream_first_publish is None:
            self._stream_first_publish = arrivals[0][0]
        for publish_ts, offset in arrivals:
            self._stream_watermark = publish_ts
            slot = publish_slot(publish_ts, self._stream_first_publish, window_s)
            if slot != self._stream_open_slot:  # accepted slots never decrease
                self._stream_flush()
                self._stream_open_slot = slot
            self._stream_open_arrivals.append(start_index + offset)
        return len(batch)

    def stream_end(self) -> MarketSolution:
        """Dispatch the final open window and settle every driver."""
        if not self._streaming:
            raise RuntimeError("call stream_begin() before stream_end()")
        self._streaming = False
        self._stream_flush()
        return self._finish()

    # ------------------------------------------------------------------
    # shared machinery
    # ------------------------------------------------------------------
    def _begin(self) -> None:
        self._states = {
            driver.driver_id: DriverState.fresh(driver) for driver in self.instance.drivers
        }
        self._kernel = CandidateKernel(self.instance, self._states.values())
        self._pending = []
        self._rejected = []
        self._lookahead = None
        if self.config.horizon > 1:
            self._lookahead = LookaheadPlanner.build(self.instance, self.config)

    def _step_window(
        self, first_publish: float, slot: int, arrivals: Sequence[int]
    ) -> None:
        """Close publish window ``slot``: its ``arrivals`` join the pending
        orders and everything pending is dispatched at the window's end.

        The replay and streaming paths derive ``slot`` / ``arrivals`` from
        the same watermark arithmetic
        (:func:`~repro.online.forecast.publish_slot`), so the lookahead
        planner observes the identical (slot, arrivals) sequence in both —
        the foundation of the stream == replay contract under horizon
        dispatch.
        """
        window_end = first_publish + (slot + 1) * self.config.window_s
        self._pending.extend(arrivals)
        if self._lookahead is not None:
            tasks = self.instance.tasks
            self._lookahead.observe_window(slot, (tasks[m] for m in arrivals))
        if not self._pending:
            return
        for state in self._states.values():
            state.release_if_done(window_end)
        assigned, expired = self._dispatch_window(window_end)
        self._rejected.extend(expired)
        expired_set = set(expired)
        self._pending = [
            m for m in self._pending if m not in assigned and m not in expired_set
        ]
        if self._lookahead is not None:
            # Proactive repositioning: drivers still idle after the window's
            # dispatch start moving toward forecast demand.  The kernel's
            # mirrors follow via sync, exactly as an assignment would.
            self._lookahead.reposition(
                self._states.values(), window_end, on_move=self._kernel.sync
            )

    def _finish(self) -> MarketSolution:
        self._rejected.extend(self._pending)
        return MarketSolution(
            instance=self.instance,
            plans=tuple(state.settle(self._cost_model) for state in self._states.values()),
            rejected_tasks=tuple(sorted(set(self._rejected))),
        )

    def _dispatch_window(self, now_ts: float) -> Tuple[Dict[int, str], List[int]]:
        """Assign the pending orders of one window.  Returns the mapping of
        assigned task index -> driver id, plus the orders whose deadline has
        already passed (they can never be served and are rejected now)."""
        expired = [
            m for m in self._pending if self.instance.tasks[m].start_deadline_ts < now_ts
        ]
        expired_set = set(expired)
        window = [m for m in self._pending if m not in expired_set]
        # One vectorised pass builds the feasibility masks and marginal-value
        # matrix for the whole window (a cross_km call per leg kind) instead
        # of a nested Python loop over (task, driver) pairs.
        with obs_trace.span("candidates", window_size=len(window)):
            candidates_by_task = self._kernel.candidates_for_window(window, now_ts)
        live_tasks = [m for m in window if m in candidates_by_task]

        if not live_tasks:
            return {}, expired

        # Only drivers with at least one admissible pair become columns of
        # the assignment matrix (in fleet order, so ties resolve the same
        # regardless of how the candidate lists were produced).
        candidate_lookup: Dict[Tuple[int, str], Candidate] = {}
        participating: set = set()
        for m in live_tasks:
            for candidate in candidates_by_task[m]:
                if candidate.marginal_value <= 0:
                    continue
                participating.add(candidate.driver_id)
                candidate_lookup[(m, candidate.driver_id)] = candidate
        if not candidate_lookup:
            return {}, expired
        driver_ids = [driver_id for driver_id in self._states if driver_id in participating]
        driver_pos = {driver_id: j for j, driver_id in enumerate(driver_ids)}
        task_pos = {m: i for i, m in enumerate(live_tasks)}

        cost = np.full((len(live_tasks), len(driver_ids)), _INFEASIBLE)
        lookahead = self._lookahead
        if lookahead is not None:
            # Overlap-horizon term: bias each admissible pair by the forecast
            # pressure it creates (drop-off zone) minus the pressure it
            # consumes (driver's current zone).  The bias prices the matrix
            # only — the participation filter above and the committed profits
            # (``CandidateKernel.commit``) use the unbiased marginals, so only
            # the control window is ever committed.
            price_scale = float(
                np.mean([self.instance.tasks[m].price for m in live_tasks])
            )
            task_pressure = {
                m: lookahead.pressure_at(self.instance.tasks[m].destination)
                for m in live_tasks
            }
            driver_pressure = {
                driver_id: lookahead.pressure_at(self._states[driver_id].location)
                for driver_id in driver_ids
            }
            weight = LOOKAHEAD_WEIGHT * price_scale
            for (m, driver_id), candidate in candidate_lookup.items():
                bias = weight * (task_pressure[m] - driver_pressure[driver_id])
                cost[task_pos[m], driver_pos[driver_id]] = -(
                    candidate.marginal_value + bias
                )
        else:
            for (m, driver_id), candidate in candidate_lookup.items():
                cost[task_pos[m], driver_pos[driver_id]] = -candidate.marginal_value

        with obs_trace.span(
            "hungarian", tasks=len(live_tasks), drivers=len(driver_ids)
        ):
            rows, cols = optimize.linear_sum_assignment(cost)
        assigned: Dict[int, str] = {}
        for i, j in zip(rows, cols):
            if cost[i, j] >= _INFEASIBLE:
                continue
            m = live_tasks[i]
            driver_id = driver_ids[j]
            candidate = candidate_lookup[(m, driver_id)]
            self._kernel.commit(candidate, m, self.instance.tasks[m])
            assigned[m] = driver_id
        return assigned, expired


def run_batched(
    instance: MarketInstance, window_s: float = 60.0, config: Optional[BatchConfig] = None
) -> MarketSolution:
    """Convenience wrapper around :class:`BatchedSimulator`."""
    if config is None:
        config = BatchConfig(window_s=window_s)
    return BatchedSimulator(instance, config).run()


def run_batched_stream(
    instance,
    arrival_batches: Iterable[Sequence[Task]],
    window_s: float = 60.0,
    config: Optional[BatchConfig] = None,
) -> MarketSolution:
    """Convenience wrapper around :meth:`BatchedSimulator.run_stream` for a
    :class:`~repro.market.streaming.StreamingMarketInstance`."""
    if config is None:
        config = BatchConfig(window_s=window_s)
    return BatchedSimulator(instance, config).run_stream(arrival_batches)
