"""Span-based flight recorder on the monotonic clock.

A *span* is a named interval with a parent, recorded as a plain tuple::

    (span_id, parent_id, name, start_s, end_s, attrs)

where ``attrs`` is a tuple of ``(key, value)`` pairs holding only
str/int/float/bool values.  Plain tuples are the whole point: they pickle
through the worker result wire unchanged, they survive the shm transport's
descriptor path (results always return pickled), and they need no import of
this module to be carried around.

Timestamps come from :func:`time.perf_counter`.  On Linux that is
``CLOCK_MONOTONIC``, which shares one epoch across every process on the
machine — so spans recorded inside slot workers can be stitched into the
coordinator's tree by :meth:`TraceRecorder.adopt` without clock translation.
(On platforms where ``perf_counter`` is per-process the stitched tree still
nests correctly; only cross-process gaps become approximate.)

The recorder is **off by default and a no-op when off**: the module-level
:func:`span` helper returns a shared null context manager after a single
``is None`` check, so instrumented hot paths (one or two spans per dispatch
window) cost nanoseconds when nobody is recording.  Parity contract 19
holds structurally — tracing reads clocks and appends to a list, and never
feeds back into dispatch arithmetic.

Memory is bounded: a recorder keeps at most ``max_spans`` spans and counts
the rest in :attr:`TraceRecorder.dropped`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from time import perf_counter
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

__all__ = [
    "NO_PARENT",
    "PHASE_NAMES",
    "SpanTuple",
    "TraceRecorder",
    "active_recorder",
    "disable_tracing",
    "enable_tracing",
    "phase_of",
    "phase_totals",
    "recording",
    "span",
    "tracing_enabled",
]

#: Attribute tuple: ((key, value), ...) with scalar values only.
AttrTuple = Tuple[Tuple[str, object], ...]

#: The wire format for one finished span.
SpanTuple = Tuple[int, int, str, float, float, AttrTuple]

#: ``parent_id`` of a root span.
NO_PARENT = -1

#: Sentinel id returned by ``begin`` once the span budget is exhausted.
DROPPED = -2

#: Default span budget per recorder (~64 bytes/span of tuples).
DEFAULT_MAX_SPANS = 250_000


def _freeze_attrs(attrs: Dict[str, object]) -> AttrTuple:
    return tuple((key, value) for key, value in attrs.items())


class _SpanHandle:
    """Re-entrant-safe context manager closing one ``begin``-ed span."""

    __slots__ = ("_recorder", "_span_id")

    def __init__(self, recorder: "TraceRecorder", span_id: int) -> None:
        self._recorder = recorder
        self._span_id = span_id

    def __enter__(self) -> "_SpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._recorder.end(self._span_id)


class _NullSpan:
    """Shared do-nothing context manager for the disabled path."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Collects spans with implicit per-thread parent nesting.

    ``begin``/``end`` are the primitive API (needed for spans that outlive a
    single call frame, e.g. a stream session's lifetime span); ``span`` is
    the context-manager sugar used everywhere else.
    """

    def __init__(self, max_spans: int = DEFAULT_MAX_SPANS) -> None:
        self.max_spans = int(max_spans)
        self.dropped = 0
        # Each entry: [span_id, parent_id, name, start_s, end_s|None, attrs]
        self._spans: List[list] = []
        self._tls = threading.local()

    # -- primitives --------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = []
            self._tls.stack = stack
        return stack

    def begin(
        self,
        name: str,
        parent_id: Optional[int] = None,
        **attrs: object,
    ) -> int:
        """Open a span; returns its id (or a sentinel once over budget)."""
        if len(self._spans) >= self.max_spans:
            self.dropped += 1
            return DROPPED
        stack = self._stack()
        if parent_id is None:
            parent_id = stack[-1] if stack else NO_PARENT
        span_id = len(self._spans)
        self._spans.append(
            [span_id, parent_id, name, perf_counter(), None, _freeze_attrs(attrs)]
        )
        stack.append(span_id)
        return span_id

    def end(self, span_id: int) -> None:
        """Close a previously ``begin``-ed span."""
        if span_id < 0:
            return
        end_s = perf_counter()
        entry = self._spans[span_id]
        if entry[4] is None:
            entry[4] = end_s
        stack = self._stack()
        if span_id in stack:
            # Pop through: abandoning children closes them at the same time.
            while stack:
                popped = stack.pop()
                inner = self._spans[popped]
                if inner[4] is None:
                    inner[4] = end_s
                if popped == span_id:
                    break

    def span(self, name: str, **attrs: object) -> _SpanHandle:
        return _SpanHandle(self, self.begin(name, **attrs))

    def detach(self, span_id: int) -> None:
        """Take an open span off this thread's stack without closing it, so
        later spans on the thread stop nesting under it (a stream's lifetime
        span, which outlives the call that opened it)."""
        stack = self._stack()
        if span_id in stack:
            stack.remove(span_id)

    @contextmanager
    def resume(self, span_id: int) -> Iterator[None]:
        """Re-enter a detached open span for one block: spans begun inside
        nest under it, and the thread's stack is restored on exit."""
        stack = self._stack()
        depth = len(stack)
        if span_id >= 0:
            stack.append(span_id)
        try:
            yield
        finally:
            del stack[depth:]

    def annotate(self, span_id: int, **attrs: object) -> None:
        """Append attributes to an open or closed span."""
        if span_id < 0:
            return
        entry = self._spans[span_id]
        entry[5] = entry[5] + _freeze_attrs(attrs)

    # -- export / stitch ---------------------------------------------------

    def __len__(self) -> int:
        return len(self._spans)

    def export(self) -> Tuple[SpanTuple, ...]:
        """All spans as immutable wire tuples (open spans closed at *now*)."""
        return self.spans_since(0)

    def spans_since(self, mark: int) -> Tuple[SpanTuple, ...]:
        """Spans from position ``mark`` on (``len(recorder)`` marks *now*)."""
        now = perf_counter()
        out = []
        for entry in self._spans[mark:]:
            end_s = entry[4] if entry[4] is not None else now
            out.append((entry[0], entry[1], entry[2], entry[3], end_s, entry[5]))
        return tuple(out)

    def subtree(self, span_id: int) -> Tuple[SpanTuple, ...]:
        """``span_id`` and every span below it, as wire tuples (empty for a
        dropped span).  A parent always begins before its children, so one
        pass from the root's position suffices."""
        if span_id < 0:
            return ()
        members = {span_id}
        out = []
        for span in self.spans_since(span_id):
            if span[0] == span_id or span[1] in members:
                members.add(span[0])
                out.append(span)
        return tuple(out)

    def adopt(
        self,
        spans: Sequence[SpanTuple],
        parent_id: int = NO_PARENT,
        **root_attrs: object,
    ) -> int:
        """Graft spans exported by another recorder under ``parent_id``.

        Ids are remapped by offset so the grafted subtree keeps its internal
        parent/child structure; spans that were roots in the worker become
        children of ``parent_id``.  ``root_attrs`` are appended to those
        re-rooted spans (e.g. ``shard=3``).  Returns the number adopted.
        """
        if not spans:
            return 0
        base = len(self._spans)
        budget = self.max_spans - base
        if budget <= 0:
            self.dropped += len(spans)
            return 0
        extra = _freeze_attrs(root_attrs)
        adopted = 0
        for span_id, old_parent, name, start_s, end_s, attrs in spans:
            if adopted >= budget:
                self.dropped += 1
                continue
            if old_parent == NO_PARENT:
                new_parent = parent_id
                new_attrs = attrs + extra if extra else attrs
            else:
                new_parent = base + old_parent
                new_attrs = attrs
            self._spans.append(
                [base + adopted, new_parent, name, start_s, end_s, new_attrs]
            )
            adopted += 1
        return adopted


# -- module-level switch ---------------------------------------------------
#
# The active recorder is **thread-local**: code that installs its own
# recorder for the duration of a call (a shard session, a service finish
# running on an executor thread) never sees, or disturbs, the recorder of
# another thread in the same process.

_TLS = threading.local()


def enable_tracing(max_spans: int = DEFAULT_MAX_SPANS) -> TraceRecorder:
    """Install (and return) a fresh recorder for the calling thread."""
    recorder = TraceRecorder(max_spans=max_spans)
    _TLS.recorder = recorder
    return recorder


def disable_tracing() -> Optional[TraceRecorder]:
    """Remove the calling thread's recorder; returns it for export."""
    recorder = getattr(_TLS, "recorder", None)
    _TLS.recorder = None
    return recorder


def install_recorder(recorder: Optional[TraceRecorder]) -> Optional[TraceRecorder]:
    """Swap in a specific recorder (worker sessions save/restore with this)."""
    previous = getattr(_TLS, "recorder", None)
    _TLS.recorder = recorder
    return previous


@contextmanager
def recording(recorder: Optional[TraceRecorder]) -> Iterator[None]:
    """Make ``recorder`` (or none) the thread's active recorder for one
    block, restoring the previous one however the block ends."""
    previous = install_recorder(recorder)
    try:
        yield
    finally:
        install_recorder(previous)


def active_recorder() -> Optional[TraceRecorder]:
    return getattr(_TLS, "recorder", None)


def tracing_enabled() -> bool:
    return getattr(_TLS, "recorder", None) is not None


def span(name: str, **attrs: object):
    """Record a span on the active recorder; free no-op when tracing is off."""
    recorder = getattr(_TLS, "recorder", None)
    if recorder is None:
        return _NULL_SPAN
    return _SpanHandle(recorder, recorder.begin(name, **attrs))


# -- phase aggregation -----------------------------------------------------

#: Per-phase breakdown columns reported by CoordinatorReport / StreamReport.
PHASE_NAMES: Tuple[str, ...] = ("candidates", "hungarian", "lp", "transport", "merge")

_PHASE_BY_SPAN: Dict[str, str] = {
    "candidates": "candidates",
    "hungarian": "hungarian",
    "greedy": "lp",
    "lagrangian": "lp",
    "lp": "lp",
    "merge": "merge",
}


def phase_of(name: str) -> Optional[str]:
    """Map a span name onto one of :data:`PHASE_NAMES` (None = uncategorised).

    Only leaf-level span names are categorised — container spans such as
    ``shard_solve`` or ``append`` deliberately map to None so a phase's
    seconds are never double-counted through nesting.
    """
    if name.startswith("transport:"):
        return "transport"
    return _PHASE_BY_SPAN.get(name)


def phase_totals(spans: Iterable[SpanTuple]) -> Tuple[Tuple[str, float], ...]:
    """Sum span durations by phase, in :data:`PHASE_NAMES` order."""
    totals = {phase: 0.0 for phase in PHASE_NAMES}
    for _, _, name, start_s, end_s, _ in spans:
        phase = phase_of(name)
        if phase is not None:
            totals[phase] += max(0.0, end_s - start_s)
    return tuple((phase, totals[phase]) for phase in PHASE_NAMES)
