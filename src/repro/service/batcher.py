"""Publish-ordered window batching for the ingestion gateway.

The streaming engine consumes *batches*; the gateway receives *orders*.
:class:`WindowBatcher` bridges the two: it accumulates orders and cuts a
batch whenever the order stream crosses a dispatch-window boundary — the
same ``(publish_ts - first_publish) // window_s`` slotting rule the batched
simulator's watermark uses (:func:`repro.online.forecast.publish_slot`), so a
cut batch can never split a window *behind* the watermark.

Correctness does **not** depend on the batcher reproducing the engine's
window boundaries exactly: ``BatchedSimulator.stream_feed`` tolerates any
publish-ordered batch boundaries (a window only dispatches once a later
window's order — or the end of the stream — proves it complete).  That
freedom is what makes the ``max_batch`` cut sound: a flood of same-window
orders can be shipped in several slices without changing a single dispatch
decision.  What the batcher *must* enforce is publish order itself — the
engine keeps a per-task publish-timestamp watermark across batches, and a
slice boundary turns within-window jitter into a cross-batch regression —
so an order publishing before the last accepted one is rejected with
``ValueError`` rather than silently corrupting the watermark.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..market.task import Task
from ..online.forecast import publish_slot


class WindowBatcher:
    """Accumulate publish-ordered orders; emit batches at window boundaries.

    Parameters
    ----------
    window_s:
        Dispatch-window length — must match the stream's ``BatchConfig``
        so batch cuts track the engine's watermark.
    max_batch:
        Optional cap on batch size: a window accumulating more than
        ``max_batch`` orders is shipped in slices (sound under the
        watermark semantics, see the module docstring).  ``None`` means
        a batch per window, whatever its size.
    """

    __slots__ = (
        "window_s", "max_batch", "_anchor", "_watermark", "_open_slot", "_open", "_pushed",
    )

    def __init__(self, window_s: float, max_batch: Optional[int] = None) -> None:
        if window_s <= 0:
            raise ValueError("window_s must be positive")
        if max_batch is not None and max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        self.window_s = float(window_s)
        self.max_batch = max_batch
        self._anchor: Optional[float] = None
        self._watermark = float("-inf")
        self._open_slot: Optional[int] = None
        self._open: List[Task] = []
        self._pushed = 0

    @property
    def pending(self) -> int:
        """Orders accumulated in the open (not yet shipped) batch."""
        return len(self._open)

    @property
    def pushed(self) -> int:
        """Orders accepted since construction (shipped + pending)."""
        return self._pushed

    def push(self, task: Task) -> Optional[Tuple[Task, ...]]:
        """Accept one order; return the batch it closed, if any.

        Returns the previous window's batch when ``task`` opens a later
        window, or a full slice when ``max_batch`` is hit — ``None`` while
        the open batch is still accumulating.  Raises ``ValueError`` on an
        order publishing before the last accepted one (publish order is the
        stream's one hard precondition; equal timestamps are fine).
        """
        if task.publish_ts < self._watermark:
            raise ValueError(
                f"order {task.task_id!r} violates publish order: it publishes "
                f"at {task.publish_ts} behind the watermark {self._watermark}"
            )
        self._watermark = task.publish_ts
        if self._anchor is None:
            self._anchor = task.publish_ts
        slot = publish_slot(task.publish_ts, self._anchor, self.window_s)
        closed: Optional[Tuple[Task, ...]] = None
        if self._open_slot is None:
            self._open_slot = slot
        elif slot > self._open_slot:
            closed = self.flush()
            self._open_slot = slot
        self._open.append(task)
        self._pushed += 1
        if closed is None and self.max_batch is not None and len(self._open) >= self.max_batch:
            closed = self.flush()
            self._open_slot = slot  # same window stays open for the next slice
        return closed

    def flush(self) -> Optional[Tuple[Task, ...]]:
        """Cut and return the open batch (``None`` when nothing is pending)."""
        if not self._open:
            return None
        batch = tuple(self._open)
        self._open = []
        return batch
