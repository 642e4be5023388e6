"""Benchmark-owned span recorder and the timing wrappers of the traced run.

The traced run (``run.py --trace``) measures *from outside the program*: it
installs timing wrappers around the public entry points of each layer
(:data:`LAYERS`), runs a round, and removes them again.  Nothing under
``src/`` is edited; end-to-end numbers always come from runs with no wrapper
installed.

A span is ``(name, start, end, parent)``.  A layer's seconds are its spans'
**self time** — the span's duration minus the part of that interval its child
spans cover — so the layers plus the root's own self time sum to the traced
wall exactly.  Spans recorded on another thread (the service runs
``session.finish`` off-loop) hang under the root; coverage is an interval
union, so time the loop spends idle while the thread works is charged to the
thread's spans, not to the root.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
import threading
import time
import types
from typing import Callable, Dict, List, Optional, Tuple

_clock = time.perf_counter

#: Probe signature: ``probe(start_s, args, result)``, called after the wrapped
#: call returns (still inside its span).
Probe = Callable[[float, tuple, object], None]


class SpanRecorder:
    """In-memory spans in four parallel lists; written out only at exit."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self.starts: List[float] = []
        self.ends: List[float] = []
        self.parents: List[int] = []
        self.counters: Dict[str, float] = {}
        self.root: int = -1
        self._local = threading.local()

    # -- recording ------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_root(self, name: str = "root") -> int:
        """Open the span every parentless span hangs under.  The root is not
        on any thread's stack, so it may stay open across ``await`` points."""
        self.root = self._append(name, -1)
        return self.root

    def close_root(self) -> None:
        self.ends[self.root] = _clock()

    def _append(self, name: str, parent: int) -> int:
        self.names.append(name)
        self.parents.append(parent)
        self.ends.append(0.0)
        self.starts.append(_clock())
        return len(self.starts) - 1

    def begin(self, name: str) -> int:
        stack = self._stack()
        index = self._append(name, stack[-1] if stack else self.root)
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.ends[index] = _clock()
        self._stack().pop()

    def count(self, counter: str, amount: float) -> None:
        self.counters[counter] = self.counters.get(counter, 0.0) + amount

    # -- analysis -------------------------------------------------------
    def self_times(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Per span name: summed self time and number of spans."""
        children: Dict[int, List[int]] = {}
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                children.setdefault(parent, []).append(index)
        seconds: Dict[str, float] = {}
        counts: Dict[str, int] = {}
        for index, name in enumerate(self.names):
            start, end = self.starts[index], self.ends[index]
            covered = 0.0
            cursor = start
            for child in sorted(children.get(index, ()), key=self.starts.__getitem__):
                lo = max(self.starts[child], cursor)
                hi = min(self.ends[child], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            seconds[name] = seconds.get(name, 0.0) + (end - start) - covered
            counts[name] = counts.get(name, 0) + 1
        return seconds, counts

    def total_s(self, name: str) -> float:
        """Summed durations of the spans called ``name``, children included
        (meaningful for a name that does not nest inside itself)."""
        return sum(e - s for n, s, e in zip(self.names, self.starts, self.ends) if n == name)

    def wall_s(self) -> float:
        return self.ends[self.root] - self.starts[self.root]

    def dump(self, path, meta: Dict[str, object]) -> None:
        """Write the spans as columns (see README, "Reading a trace file")."""
        names = sorted(set(self.names))
        index_of = {name: i for i, name in enumerate(names)}
        origin = self.starts[self.root] if self.root >= 0 else 0.0
        seconds, counts = self.self_times()
        payload = {
            "meta": meta,
            "names": names,
            "name": [index_of[name] for name in self.names],
            "start_us": [round((s - origin) * 1e6, 1) for s in self.starts],
            "end_us": [round((e - origin) * 1e6, 1) for e in self.ends],
            "parent": self.parents,
            "self_seconds": {k: round(v, 6) for k, v in sorted(seconds.items())},
            "span_counts": dict(sorted(counts.items())),
            "counters": dict(sorted(self.counters.items())),
        }
        with open(path, "w") as handle:
            json.dump(payload, handle)
            handle.write("\n")


# ----------------------------------------------------------------------
# wrappers
# ----------------------------------------------------------------------
def _sync_wrapper(recorder: SpanRecorder, name: str, fn, probe: Optional[Probe]):
    def wrapper(*args, **kwargs):
        index = recorder.begin(name)
        try:
            result = fn(*args, **kwargs)
            if probe is not None:
                probe(recorder.starts[index], args, result)
            return result
        finally:
            recorder.end(index)

    wrapper.__wrapped__ = fn
    return wrapper


@types.coroutine
def _drive(recorder: SpanRecorder, name: str, coro):
    """Run ``coro`` to completion, recording one span per *active segment*
    (resume -> next suspension).  Time the coroutine spends suspended belongs
    to whatever ran meanwhile, never to this layer."""
    value, error = None, None
    while True:
        index = recorder.begin(name)
        try:
            if error is None:
                yielded = coro.send(value)
            else:
                yielded = coro.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            recorder.end(index)
        try:
            value, error = (yield yielded), None
        except BaseException as exc:  # cancellation included: forward it
            value, error = None, exc


def _async_wrapper(recorder: SpanRecorder, name: str, fn):
    async def wrapper(*args, **kwargs):
        return await _drive(recorder, name, fn(*args, **kwargs))

    wrapper.__wrapped__ = fn
    return wrapper


class Wrappers:
    """Installs and removes timing wrappers; ``remove`` restores the very
    objects that were there before."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[object, str, object]] = []

    def replace(self, owner, attr: str, value) -> None:
        """Swap ``owner.attr`` for ``value`` (restored by :meth:`remove`)."""
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def wrap(self, owner, attr: str, name: str, probe: Optional[Probe] = None) -> None:
        """Wrap ``owner.attr`` (module function, method or classmethod).  A
        module function is replaced in every loaded ``repro`` module that
        imported it by name, so ``from x import f`` callers are timed too."""
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            self.replace(owner, attr, classmethod(
                _sync_wrapper(self.recorder, name, raw.__func__, probe)))
            return
        if inspect.iscoroutinefunction(raw):
            wrapped = _async_wrapper(self.recorder, name, raw)
        else:
            wrapped = _sync_wrapper(self.recorder, name, raw, probe)
        if isinstance(owner, types.ModuleType):
            for module_name, module in list(sys.modules.items()):
                if module is None or not module_name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is raw:
                        self.replace(module, key, wrapped)
        else:
            self.replace(owner, attr, wrapped)

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# the layer table
# ----------------------------------------------------------------------
#: ``(span name, module, class or None, attribute)`` — the public calls the
#: traced run wraps.  A span name is a per-layer metric name minus its
#: ``_s`` suffix; several calls may share one.
LAYERS: Tuple[Tuple[str, str, Optional[str], str], ...] = (
    ("market.taskmap.build", "repro.market.taskmap", None, "build_task_network"),
    ("market.taskmap.build", "repro.market.taskmap", None, "build_driver_task_maps"),
    ("geo.batch.cross_km", "repro.geo.batch", None, "cross_km"),
    ("geo.batch.cross_km", "repro.geo.batch", None, "pairwise_km"),
    ("offline.greedy.solve", "repro.offline.greedy", "GreedySolver", "solve"),
    ("offline.dag.best_path", "repro.offline.dag", None, "best_path"),
    ("core.solution.merge", "repro.core.solution", "MarketSolution", "from_assignment"),
    ("distributed.partition.partition", "repro.distributed.partition", "SpatialPartitioner", "partition"),
    ("distributed.partition.route", "repro.distributed.partition", "ZonePartition", "route"),
    ("distributed.coordinator.self", "repro.distributed.coordinator", "DistributedCoordinator", "solve"),
    ("distributed.coordinator.self", "repro.distributed.coordinator", "DistributedCoordinator", "open_stream"),
    ("distributed.coordinator.self", "repro.distributed.coordinator", "DistributedStreamSession", "append_batch"),
    ("distributed.coordinator.self", "repro.distributed.coordinator", "DistributedStreamSession", "finish"),
    ("distributed.pool.submit", "repro.distributed.pool", "PersistentWorkerPool", "submit"),
    ("market.streaming.append", "repro.market.streaming", "StreamingMarketInstance", "append_tasks"),
    ("online.batch.feed", "repro.online.batch", "BatchedSimulator", "stream_begin"),
    ("online.batch.feed", "repro.online.batch", "BatchedSimulator", "stream_feed"),
    ("online.batch.feed", "repro.online.batch", "BatchedSimulator", "stream_end"),
    ("online.candidates.window", "repro.online.candidates", "CandidateKernel", "candidates_for_window"),
    ("online.candidates.extend", "repro.online.candidates", "CandidateKernel", "extend_tasks"),
    ("distributed.payload.flatten", "repro.distributed.payload", None, "delta_from_tasks"),
    ("distributed.payload.rebuild", "repro.distributed.payload", None, "tasks_from_delta"),
    ("distributed.transport.ship", "repro.distributed.transport", "ShmShipper", "ship_delta"),
    ("distributed.transport.attach", "repro.distributed.transport", None, "delta_from_descriptor"),
    ("service.gateway.self", "repro.service.gateway", "DispatchService", "submit"),
    ("service.gateway.self", "repro.service.gateway", "DispatchService", "rotate"),
    ("service.gateway.self", "repro.service.gateway", "DispatchService", "finish"),
    ("service.batcher.push", "repro.service.batcher", "WindowBatcher", "push"),
    ("service.batcher.push", "repro.service.batcher", "WindowBatcher", "flush"),
)

#: Spans whose count is a per-layer metric of its own.
COUNT_METRICS: Dict[str, str] = {
    "market.taskmap.build": "market.taskmap.builds",
    "offline.dag.best_path": "offline.dag.best_path_calls",
    "market.streaming.append": "market.streaming.appends",
    "online.candidates.window": "online.batch.windows",
}


def _pairs_probe(recorder: SpanRecorder) -> Probe:
    def probe(_start, _args, result) -> None:
        recorder.count("geo.batch.pairs", float(getattr(result, "size", 0)))
    return probe


def _appended_probe(recorder: SpanRecorder) -> Probe:
    def probe(_start, args, _result) -> None:
        recorder.count("market.streaming.tasks_appended", float(len(args[1])))
    return probe


def install(recorder: SpanRecorder, probes: Optional[Dict[Tuple[str, str], Probe]] = None) -> Wrappers:
    """Wrap every call in :data:`LAYERS` plus the Hungarian call site of
    ``online.batch``.  ``probes`` adds per-call hooks keyed by
    ``(class or module name, attribute)``."""
    all_probes: Dict[Tuple[str, str], Probe] = {
        ("repro.geo.batch", "cross_km"): _pairs_probe(recorder),
        ("repro.geo.batch", "pairwise_km"): _pairs_probe(recorder),
        ("StreamingMarketInstance", "append_tasks"): _appended_probe(recorder),
    }
    all_probes.update(probes or {})
    wrappers = Wrappers(recorder)
    try:
        for name, module_name, class_name, attr in LAYERS:
            module = importlib.import_module(module_name)
            owner = getattr(module, class_name) if class_name else module
            wrappers.wrap(owner, attr, name, all_probes.get((class_name or module_name, attr)))
        # ``online.batch`` calls ``optimize.linear_sum_assignment``; give that
        # one module a namespace whose function is timed, leaving scipy alone.
        batch = importlib.import_module("repro.online.batch")
        wrappers.replace(batch, "optimize", types.SimpleNamespace(
            linear_sum_assignment=_sync_wrapper(
                recorder, "online.batch.hungarian",
                batch.optimize.linear_sum_assignment, None)))
    except BaseException:
        wrappers.remove()
        raise
    return wrappers
