"""Zero-copy shard transport over POSIX shared memory.

The process-pool wire format (:mod:`repro.distributed.payload`) already
reduced what crosses a slot's pipe to primal-input NumPy arrays — but it
still *pickles* those arrays, so every shard record (one
``ShardPayloadDelta``: an offline shard's tasks or a stream batch) is copied
into the pipe byte for byte, then copied back out in the worker.
At city scale that serialisation is most of the dispatch cost: the benchmarks
consistently showed ``critical_path_speedup`` of 3-4x against
``speedup_vs_serial`` below 1.

This module moves the array bytes out of the pipe entirely:

* the coordinator-side :meth:`ShmShipper.ship_delta` copies a record's
  columns into a :class:`multiprocessing.shared_memory.SharedMemory` segment
  (one segment per in-flight shipment, recycled through a free list, so a
  steady-state stream reuses a handful of segments instead of allocating per
  batch).  The layout follows the record's declared columns: its
  ``ARRAY_FIELDS``, then one UTF-8 blob and one length column per entry of
  its ``ID_FIELDS``;
* only a :class:`DeltaDescriptor` crosses the pipe — the shard id, the
  segment name and ``(offset, shape, dtype)`` per column, a few hundred
  bytes regardless of shard size;
* the worker attaches the segment (cached per name, so attach cost is paid
  once per segment, not per batch) and :func:`delta_from_descriptor` rebuilds
  the record with NumPy views
  straight over the shared buffer — zero copies on the receive side, because
  the records' contiguity invariant (``ShardPayloadDelta.__post_init__``) makes
  ``np.ascontiguousarray`` a no-op on the views.

Correctness model
-----------------

A segment is recycled only after the future of the call that references it
completes (the pool wires this through ``add_done_callback``; the callback
runs on the slot's reader thread), and each slot's worker answers the calls
on its FIFO connection in submission order — so a worker always reads a
segment *after* the coordinator's writes and *before* any reuse overwrites
them.  Workers never keep views past the call: both worker entries open
their shipment with the pool's one opener, which materialises plain
:class:`~repro.market.task.Task` objects immediately (the same rebuild the
pickle path performs), so a recycled segment can never mutate state a
worker still holds.

Segment names are unique per process (``repro-shm-<pid>-<shipper>-<seq>``,
with a process-global shipper counter so consecutive pools never mint the
same name) and never reused after unlink, which is what makes the
worker-side attach cache safe and lets the lifecycle tests scan
``/dev/shm`` for leaks by prefix.

The pickle transport remains the default and the fallback: a shipment that
fails for any reason (shared memory exhausted, permission trouble) is
re-sent pickled and counted in :attr:`TransportStats.pickle_fallbacks`.
Parity contract 16 pins that both transports produce bit-identical merged
solutions.
"""

from __future__ import annotations

import itertools
import logging
import mmap
import os
import pickle
from dataclasses import dataclass, field
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs import trace as obs_trace

logger = logging.getLogger("repro.distributed.transport")

try:  # the POSIX shm syscalls shared_memory itself is built on
    import _posixshmem
except ImportError:  # non-POSIX: SharedMemory doesn't resource-track there
    _posixshmem = None

from .payload import ShardPayloadDelta

#: Transport policies accepted by the pool and the coordinator.
TRANSPORTS = ("pickle", "shm")

#: Smallest segment the shipper allocates; segments grow in powers of two so
#: the free list converges to a few sizes instead of fragmenting.
_MIN_SEGMENT_BYTES = 1 << 16

#: Free segments kept for reuse before excess ones are unlinked.
_MAX_FREE_SEGMENTS = 16

#: Worker-side attach cache bound; above it, stale attachments are closed.
_MAX_ATTACHED_SEGMENTS = 32

#: One spec per shipped column: (byte offset, shape, dtype string).
ArraySpec = Tuple[int, Tuple[int, ...], str]


def transport_error(name: str) -> ValueError:
    return ValueError(f"unknown transport {name!r}; expected one of {TRANSPORTS}")


# ----------------------------------------------------------------------
# descriptors (the only thing that crosses the pipe)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DeltaDescriptor:
    """Where one :class:`ShardPayloadDelta` lives in shared memory.

    ``specs`` covers, in order, the record's ``ARRAY_FIELDS`` followed by a
    UTF-8 blob (``uint8``) and a length column (``int64``) per entry of its
    ``ID_FIELDS``.
    """

    shard_id: int
    segment: str
    specs: Tuple[ArraySpec, ...]


# ----------------------------------------------------------------------
# packing helpers
# ----------------------------------------------------------------------
def _encode_ids(ids: Sequence[str]) -> Tuple[np.ndarray, np.ndarray]:
    """Flatten a string-id tuple into a UTF-8 blob + per-id byte lengths."""
    parts = [s.encode("utf-8") for s in ids]
    lens = np.array([len(p) for p in parts], dtype=np.int64)
    blob = np.frombuffer(b"".join(parts), dtype=np.uint8) if parts else np.empty(0, np.uint8)
    return blob, lens


def _decode_ids(blob: np.ndarray, lens: np.ndarray) -> Tuple[str, ...]:
    """Inverse of :func:`_encode_ids` (exact string round trip)."""
    raw = blob.tobytes()
    out: List[str] = []
    pos = 0
    for n in lens.tolist():
        out.append(raw[pos : pos + n].decode("utf-8"))
        pos += n
    return tuple(out)


def _layout(arrays: Sequence[np.ndarray]) -> Tuple[Tuple[ArraySpec, ...], int]:
    """8-byte-aligned packing of ``arrays`` into one buffer: specs + size."""
    specs: List[ArraySpec] = []
    offset = 0
    for arr in arrays:
        offset = (offset + 7) & ~7
        specs.append((offset, tuple(arr.shape), arr.dtype.str))
        offset += arr.nbytes
    return tuple(specs), max(offset, 1)


def _write_arrays(buf: memoryview, specs: Sequence[ArraySpec], arrays: Sequence[np.ndarray]) -> None:
    for (offset, shape, dtype), arr in zip(specs, arrays):
        view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
        view[...] = arr


def _read_arrays(buf: memoryview, specs: Sequence[ArraySpec]) -> List[np.ndarray]:
    return [
        np.ndarray(shape, dtype=np.dtype(dtype), buffer=buf, offset=offset)
        for offset, shape, dtype in specs
    ]


def delta_wire_bytes(record: ShardPayloadDelta) -> int:
    """Bytes a pickled shipment of ``record`` puts on the pipe, at minimum
    (array bytes + UTF-8 id bytes; pickle framing adds a little more).  Used
    for the pickle transport's side of the bytes-over-pipe accounting."""
    n = sum(getattr(record, f).nbytes for f in record.ARRAY_FIELDS)
    return n + sum(
        len(s.encode("utf-8")) for f in record.ID_FIELDS for s in getattr(record, f)
    )


def _columns(record: ShardPayloadDelta) -> List[np.ndarray]:
    """The record's array fields, then a blob + lengths pair per id field."""
    arrays = [getattr(record, f) for f in record.ARRAY_FIELDS]
    for name in record.ID_FIELDS:
        arrays.extend(_encode_ids(getattr(record, name)))
    return arrays


# ----------------------------------------------------------------------
# transport accounting
# ----------------------------------------------------------------------
@dataclass
class TransportStats:
    """Wire traffic counters for one pool (coordinator side).

    ``bytes_over_pipe`` is the headline number: what the shipped task
    records put on an executor pipe — pickled record bytes on the pickle
    transport, only the tiny descriptors on shm (call arguments such as a
    shard's drivers are not counted).  ``shm_bytes`` counts the array bytes that went
    through shared memory instead; ``shard_bytes`` attributes over-pipe
    bytes to shards for the health endpoint.
    """

    transport: str = "pickle"
    shm_shipments: int = 0
    shm_bytes: int = 0
    descriptor_bytes: int = 0
    pickle_shipments: int = 0
    pickle_bytes: int = 0
    pickle_fallbacks: int = 0
    segments_created: int = 0
    segment_reuses: int = 0
    segments_retired: int = 0
    shard_bytes: Dict[int, int] = field(default_factory=dict)

    @property
    def bytes_over_pipe(self) -> int:
        return self.descriptor_bytes + self.pickle_bytes

    def counters(self) -> Tuple[int, int, int, int]:
        """``(bytes_over_pipe, shm_bytes, segment_reuses, pickle_fallbacks)``
        so far; the counts are cumulative over the pool's lifetime, so a
        solve or stream report carries the difference of two readings."""
        return (
            self.bytes_over_pipe, self.shm_bytes, self.segment_reuses, self.pickle_fallbacks
        )

    def record_shm(self, shard_id: int, shm_bytes: int, descriptor_bytes: int) -> None:
        self.shm_shipments += 1
        self.shm_bytes += shm_bytes
        self.descriptor_bytes += descriptor_bytes
        self.shard_bytes[shard_id] = self.shard_bytes.get(shard_id, 0) + descriptor_bytes

    def record_pickle(self, shard_id: int, wire_bytes: int, *, fallback: bool = False) -> None:
        self.pickle_shipments += 1
        self.pickle_bytes += wire_bytes
        if fallback:
            self.pickle_fallbacks += 1
        self.shard_bytes[shard_id] = self.shard_bytes.get(shard_id, 0) + wire_bytes

    def snapshot(self) -> Dict[str, object]:
        """A JSON-ready copy (health endpoints, bench artifacts)."""
        return {
            "transport": self.transport,
            "bytes_over_pipe": self.bytes_over_pipe,
            "shm_shipments": self.shm_shipments,
            "shm_bytes": self.shm_bytes,
            "descriptor_bytes": self.descriptor_bytes,
            "pickle_shipments": self.pickle_shipments,
            "pickle_bytes": self.pickle_bytes,
            "pickle_fallbacks": self.pickle_fallbacks,
            "segments_created": self.segments_created,
            "segment_reuses": self.segment_reuses,
            "segments_retired": self.segments_retired,
            "shard_bytes": dict(sorted(self.shard_bytes.items())),
        }


# ----------------------------------------------------------------------
# coordinator side: the shipper
# ----------------------------------------------------------------------
class ShmShipper:
    """Owns the shared-memory segments a pool ships payloads through.

    Thread-safe: the streaming session's dispatch thread and offline solve
    fan-outs may ship concurrently.  Every live segment is tracked, so
    :meth:`close` (reached from ``pool.close()``, the broken-worker path and
    context-manager/SIGINT unwinding alike) unlinks everything and
    ``/dev/shm`` ends each run exactly as it started.
    """

    #: Process-global shipper counter: two shippers alive in one process
    #: (consecutive pools, a pool per city) must never mint the same segment
    #: name, or the workers' attach-by-name cache would serve stale buffers.
    _instances = itertools.count(1)

    def __init__(self, stats: Optional[TransportStats] = None) -> None:
        import threading

        self._lock = threading.Lock()
        self._seq = 0
        self._prefix = f"repro-shm-{os.getpid()}-{next(ShmShipper._instances)}-"
        self._free: List[shared_memory.SharedMemory] = []
        self._live: Dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        self.stats = stats if stats is not None else TransportStats(transport="shm")

    @property
    def segment_prefix(self) -> str:
        """The name prefix of every segment this shipper creates (lifecycle
        tests scan ``/dev/shm`` for it)."""
        return self._prefix

    def _acquire(self, nbytes: int) -> shared_memory.SharedMemory:
        with self._lock:
            if self._closed:
                raise RuntimeError("shipper is closed")
            best = None
            for seg in self._free:
                if seg.size >= nbytes and (best is None or seg.size < best.size):
                    best = seg
            if best is not None:
                self._free.remove(best)
                self._live[best.name] = best
                self.stats.segment_reuses += 1
                return best
            size = _MIN_SEGMENT_BYTES
            while size < nbytes:
                size <<= 1
            self._seq += 1
            name = f"{self._prefix}{self._seq}"
            seg = shared_memory.SharedMemory(name=name, create=True, size=size)
            self._live[seg.name] = seg
            self.stats.segments_created += 1
            return seg

    def release(self, segment_name: str) -> None:
        """Return a shipped segment to the free list (called from the done
        callback of the future that consumed it).  Idempotent; excess free
        segments are unlinked on the spot."""
        with self._lock:
            seg = self._live.pop(segment_name, None)
            if seg is None:
                return
            if self._closed or len(self._free) >= _MAX_FREE_SEGMENTS:
                self.stats.segments_retired += 1
                seg.close()
                seg.unlink()
            else:
                self._free.append(seg)

    def _ship(self, arrays: Sequence[np.ndarray]) -> Tuple[str, Tuple[ArraySpec, ...], int]:
        specs, nbytes = _layout(arrays)
        seg = self._acquire(nbytes)
        _write_arrays(seg.buf, specs, arrays)
        return seg.name, specs, nbytes

    def ship_delta(self, record: ShardPayloadDelta) -> DeltaDescriptor:
        """Copy a shard record's columns into a segment; returns the
        descriptor to send in its place."""
        with obs_trace.span("transport:ship_delta", shard=record.shard_id):
            name, specs, nbytes = self._ship(_columns(record))
            desc = DeltaDescriptor(shard_id=record.shard_id, segment=name, specs=specs)
            self.stats.record_shm(record.shard_id, nbytes, len(pickle.dumps(desc)))
            return desc

    def close(self) -> None:
        """Unlink every segment this shipper ever created (idempotent)."""
        with self._lock:
            self._closed = True
            segments = list(self._free) + list(self._live.values())
            self._free.clear()
            self._live.clear()
        for seg in segments:
            try:
                seg.close()
                seg.unlink()
            except FileNotFoundError:  # already gone (e.g. manual cleanup)
                pass

    def __del__(self) -> None:  # last-resort cleanup; close() is the contract
        try:
            self.close()
        except Exception:
            pass


# ----------------------------------------------------------------------
# worker side: attach + rebuild
# ----------------------------------------------------------------------
class _AttachedSegment:
    """A read/write attachment to an existing segment, outside the resource
    tracker.

    The shipper (creator) owns segment lifetime; a reader must not register
    the name with *its* resource tracker, or every attaching process grows a
    tracker that re-unlinks — and warns about — segments the shipper already
    cleaned up at exit.  Python 3.13 grew ``SharedMemory(track=False)`` for
    exactly this; on older versions we attach the same way it does:
    ``shm_open`` + ``mmap``, no registration.
    """

    __slots__ = ("name", "buf", "_mmap")

    def __init__(self, name: str, mm: mmap.mmap) -> None:
        self.name = name
        self._mmap = mm
        self.buf: Optional[memoryview] = memoryview(mm)

    def close(self) -> None:
        if self.buf is not None:
            self.buf.release()  # BufferError while views are live, like shm
            self.buf = None
        self._mmap.close()


def _open_untracked(name: str):
    """Attach to ``name`` without resource-tracker registration."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # Python < 3.13: no track parameter
        pass
    if _posixshmem is None:  # pragma: no cover - non-POSIX, attach is untracked
        return shared_memory.SharedMemory(name=name)
    fd = _posixshmem.shm_open("/" + name, os.O_RDWR, mode=0o600)
    try:
        size = os.fstat(fd).st_size
        mm = mmap.mmap(fd, size)
    finally:
        os.close(fd)
    return _AttachedSegment(name, mm)


#: Segments this process has attached, by name.  Names are never reused, so
#: a cache hit is always the right mapping; the bound exists only to cap
#: open handles in very long-lived workers.
_ATTACHED: Dict[str, object] = {}


def _attach(name: str):
    seg = _ATTACHED.get(name)
    if seg is None:
        if len(_ATTACHED) >= _MAX_ATTACHED_SEGMENTS:
            for stale_name, stale in list(_ATTACHED.items()):
                try:
                    stale.close()
                except BufferError:  # a view is somehow still live; keep it
                    continue
                del _ATTACHED[stale_name]
        seg = _open_untracked(name)
        _ATTACHED[name] = seg
    return seg


def delta_from_descriptor(desc: DeltaDescriptor) -> ShardPayloadDelta:
    """Rebuild a shard record from shared memory — array views, zero copies.

    The views are only valid until the shipping future completes; callers
    must materialise tasks before returning (both worker entry points do)."""
    with obs_trace.span("transport:attach", shard=desc.shard_id):
        arrays = _read_arrays(_attach(desc.segment).buf, desc.specs)
        columns, ids = ShardPayloadDelta.ARRAY_FIELDS, ShardPayloadDelta.ID_FIELDS
        blobs = arrays[len(columns):]
        return ShardPayloadDelta(
            desc.shard_id,
            **dict(zip(columns, arrays)),
            **{
                name: _decode_ids(blob, lens)
                for name, blob, lens in zip(ids, blobs[::2], blobs[1::2])
            },
        )
