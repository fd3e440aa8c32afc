"""Durable append-only event store: the fleet's flight recorder.

Every :class:`~repro.serving.service.SessionEvent` a serving layer
emits — ordinary monitoring events, fail-safe crash events, ingest
failures — can be teed into an :class:`EventStoreWriter`, which
persists them to **segmented, schema-versioned, append-only log
files**.  The write path is designed around one invariant: *the hot
tick loop never blocks on disk*.  ``append()`` encodes the record and
pushes it onto a bounded in-memory ring; ``append_batch()`` encodes a
whole tick's :class:`~repro.serving.service.EventBatch` in one
vectorised pass into one blob.  A background flusher thread batches
the ring into single ``write()`` calls, rotates segments at a size
cap, and applies the configured fsync policy.  A full ring
degrades to a **counted drop** (``dropped_total``), never a stalled
tick — the same fail-open posture as the shared-memory event ring.

The read side (:class:`EventStoreReader`) replays the log:
per-session / per-procedure timelines come back **bit-identical** to
the live event stream (session ids, frame indices, gestures, raw
float64 score bits, flags, error fields), pinned by the chaos-parity
suite.  A truncated trailing record — the signature of a crash
mid-write — is recovered by stopping at the last complete record;
a segment written by a *different* schema version is refused with
:class:`~repro.errors.ProtocolError`, mirroring the wire protocol's
version handshake.

Segment format (all little-endian)::

    header:  magic ``b"RSEVTLOG"`` | version u16 | reserved u16
    record:  payload_len u32 | kind u8 | payload
    event payload:   seq u64 | frame u64 | gesture i64 | score f64 |
                     flags u8 (bit0=flag, bit1=has_error) | shard i32 |
                     latency_us f64 | sid_len u16 | sid utf-8 |
                     [err_len u32 | err utf-8]
    marker payload:  seq u64 | json_len u32 | json utf-8

``score`` is stored as its raw IEEE-754 bits, so replay round-trips
the float exactly.  Markers record fleet-level incidents (resizes)
interleaved with events in append order.  See
``docs/observability.md``.
"""

from __future__ import annotations

import json
import os
import struct
import threading
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

import numpy as np

from ..errors import ConfigurationError, ProtocolError
from .service import EventBatch, SessionEvent

if TYPE_CHECKING:  # pragma: no cover - typing only
    from typing import BinaryIO

__all__ = [
    "EVENTSTORE_VERSION",
    "EventStoreReader",
    "EventStoreWriter",
    "StoredRecord",
]

#: Segment schema version.  Bump on any layout change; readers refuse
#: foreign versions with :class:`ProtocolError`, like the wire protocol.
EVENTSTORE_VERSION = 1

#: 8-byte segment magic preceding the version header.
SEGMENT_MAGIC = b"RSEVTLOG"

#: Record kinds.
REC_EVENT = 1
REC_MARKER = 2

_HEADER = struct.Struct("<8sHH")
_RECORD_PREFIX = struct.Struct("<IB")  # payload length, kind
_EVENT_FIXED = struct.Struct("<QQqdBid")  # seq,frame,gesture,score,flags,shard,latency
_U16 = struct.Struct("<H")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")

_FLAG_UNSAFE = 0x01
_FLAG_HAS_ERROR = 0x02

#: The fixed-width head of an EVENT record — prefix, fixed payload and
#: the session-id length — as one packed numpy record, so a whole
#: :class:`EventBatch` encodes in a handful of array operations.  Field
#: for field the same bytes as ``_RECORD_PREFIX`` + ``_EVENT_FIXED`` +
#: ``_U16``.
_EVENT_HEAD = np.dtype(
    [
        ("payload_len", "<u4"),
        ("kind", "u1"),
        ("seq", "<u8"),
        ("frame", "<u8"),
        ("gesture", "<i8"),
        ("score", "<f8"),
        ("flags", "u1"),
        ("shard", "<i4"),
        ("latency_us", "<f8"),
        ("sid_len", "<u2"),
    ]
)
assert _EVENT_HEAD.itemsize == _RECORD_PREFIX.size + _EVENT_FIXED.size + _U16.size

#: fsync policies accepted by :class:`EventStoreWriter`.
FSYNC_POLICIES = ("always", "rotate", "never")


def _encode_event(seq: int, event: SessionEvent, shard: int) -> bytes:
    """One EVENT record (prefix included), score as raw float64 bits."""
    flags = (_FLAG_UNSAFE if event.flag else 0) | (
        _FLAG_HAS_ERROR if event.error is not None else 0
    )
    sid = event.session_id.encode("utf-8")
    payload = [
        _EVENT_FIXED.pack(
            seq,
            event.frame_index,
            event.gesture,
            event.score,
            flags,
            shard,
            event.latency_us,
        ),
        _U16.pack(len(sid)),
        sid,
    ]
    if event.error is not None:
        err = event.error.encode("utf-8")
        payload.append(_U32.pack(len(err)))
        payload.append(err)
    body = b"".join(payload)
    return _RECORD_PREFIX.pack(len(body), REC_EVENT) + body


def _encode_batch(
    first_seq: int, batch: EventBatch, shard: int | np.ndarray
) -> tuple[bytes, np.ndarray]:
    """EVENT records for every row of ``batch`` as one contiguous blob.

    Returns ``(blob, record_lengths)``.  Byte for byte the join of
    ``_encode_event`` over the rows (seqs ``first_seq`` onwards): the
    fixed-width heads are built as one packed record array, then
    interleaved with the utf-8 session ids by a boolean scatter.
    ``shard`` is one shard index for the whole batch or one per row.
    """
    n = len(batch)
    joined = "".join(batch.session_ids)
    if joined.isascii():  # one encode for the lot; bytes == characters
        sid_bytes = joined.encode("ascii")
        sid_len = np.fromiter(map(len, batch.session_ids), dtype=np.int64, count=n)
    else:
        sids = [sid.encode("utf-8") for sid in batch.session_ids]
        sid_bytes = b"".join(sids)
        sid_len = np.fromiter(map(len, sids), dtype=np.int64, count=n)
    heads = np.empty(n, dtype=_EVENT_HEAD)
    heads["payload_len"] = _EVENT_FIXED.size + _U16.size + sid_len
    heads["kind"] = REC_EVENT
    heads["seq"] = np.arange(first_seq, first_seq + n, dtype=np.uint64)
    heads["frame"] = batch.frame
    heads["gesture"] = batch.gesture
    heads["score"] = batch.score
    heads["flags"] = batch.flag  # bit0 = unsafe; batches carry no error
    heads["shard"] = shard
    heads["latency_us"] = batch.latency_us
    heads["sid_len"] = sid_len
    # Every record is a head run then a session-id run: mark the id
    # bytes by repeating (head, id) flags by their run lengths.
    runs = np.empty(2 * n, dtype=np.int64)
    runs[0::2] = _EVENT_HEAD.itemsize
    runs[1::2] = sid_len
    is_sid = np.repeat(np.arange(2 * n) % 2 == 1, runs)
    out = np.empty(is_sid.size, dtype=np.uint8)
    out[~is_sid] = heads.view(np.uint8)
    out[is_sid] = np.frombuffer(sid_bytes, dtype=np.uint8)
    return out.tobytes(), _EVENT_HEAD.itemsize + sid_len


def _encode_marker(seq: int, marker: dict) -> bytes:
    """One MARKER record (prefix included), payload as compact JSON."""
    blob = json.dumps(marker, sort_keys=True, separators=(",", ":")).encode("utf-8")
    body = _U64.pack(seq) + _U32.pack(len(blob)) + blob
    return _RECORD_PREFIX.pack(len(body), REC_MARKER) + body


@dataclass(frozen=True)
class StoredRecord:
    """One decoded log record: an event or a fleet marker.

    ``kind`` is ``"event"`` or ``"marker"``.  Event records carry the
    replayed :class:`SessionEvent` plus the provenance the live stream
    does not (``seq`` — the writer's append order across segments —
    and ``shard``, ``-1`` when the emitting layer was unsharded).
    Marker records carry the decoded JSON ``marker`` dict instead.
    """

    kind: str
    seq: int
    shard: int
    event: SessionEvent | None
    marker: dict | None


class EventStoreWriter:
    """Non-blocking bounded writer over a directory of log segments.

    Parameters
    ----------
    root:
        Store directory, created if missing.  A writer re-opened over
        an existing store starts a fresh segment after the highest
        existing index — it never appends to (or repairs) an old tail.
    segment_bytes:
        Rotation cap: a flush that would push the current segment past
        this size closes it and opens the next (a single oversized
        batch still lands whole in a fresh segment).
    ring_capacity:
        Bound on buffered-but-unflushed records.  ``append`` on a full
        ring increments ``dropped_total`` and returns ``False`` —
        it never blocks the caller.
    fsync:
        ``"always"`` — fsync after every flush batch; ``"rotate"``
        (default) — fsync only when a segment is closed; ``"never"`` —
        leave durability to the OS page cache.
    flush_interval_s:
        Background flusher period: the bound on how long a buffered
        record waits before it is written.  Appends wake the flusher
        early once the ring is half full, so a burst is written before
        it can overflow the ring.

    Thread-safe: any number of threads may ``append`` concurrently
    (the K-shard tee paths do).  Counters — ``appended_total``,
    ``dropped_total``, ``flushed_total``, ``segments_created``,
    ``bytes_written`` — are exposed via :meth:`stats` and surface in
    ``gateway_stats()`` when a store is attached to a gateway.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        segment_bytes: int = 8 << 20,
        ring_capacity: int = 65536,
        fsync: str = "rotate",
        flush_interval_s: float = 0.05,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ConfigurationError(
                f"fsync policy must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if segment_bytes < _HEADER.size + _RECORD_PREFIX.size:
            raise ConfigurationError("segment_bytes is too small for a record")
        if ring_capacity < 1:
            raise ConfigurationError("ring_capacity must be >= 1")
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.segment_bytes = int(segment_bytes)
        self.ring_capacity = int(ring_capacity)
        self.fsync = fsync
        self.flush_interval_s = float(flush_interval_s)

        self._lock = threading.Lock()
        self._io_lock = threading.Lock()
        #: Encoded blobs awaiting the flusher, each with the byte length
        #: of every record it holds; ``_buffered`` counts the records.
        self._buf: deque[tuple[bytes, np.ndarray]] = deque()
        self._buffered = 0
        self._seq = 0
        self._closed = False
        self._wake = threading.Event()

        existing = sorted(self.root.glob("events-*.seg"))
        self._next_segment = (
            int(existing[-1].stem.split("-")[1]) + 1 if existing else 0
        )
        self._file: BinaryIO | None = None
        self._file_bytes = 0

        self.appended_total = 0
        self.dropped_total = 0
        self.flushed_total = 0
        self.segments_created = 0
        self.bytes_written = 0
        self.flusher_error: str | None = None

        self._flusher = threading.Thread(
            target=self._flush_loop, name="eventstore-flusher", daemon=True
        )
        self._flusher.start()

    # -- write path ----------------------------------------------------
    def _push(self, blob: bytes, lengths: np.ndarray) -> None:
        """Queue encoded records (caller holds ``_lock``).

        The flusher is woken early only once the ring is half full;
        otherwise it drains on its ``flush_interval_s`` period, so a
        busy tick loop hands the flusher one coalesced drain per period
        instead of one thread switch per append.
        """
        self._buf.append((blob, lengths))
        n = len(lengths)
        self._seq += n
        self._buffered += n
        self.appended_total += n
        if 2 * self._buffered >= self.ring_capacity:
            self._wake.set()

    def append(self, event: SessionEvent, shard: int = -1) -> bool:
        """Buffer one event; ``False`` (and a counted drop) when full."""
        with self._lock:
            if self._closed or self._buffered >= self.ring_capacity:
                self.dropped_total += 1
                return False
            record = _encode_event(self._seq, event, shard)
            self._push(record, np.array([len(record)]))
        return True

    def append_batch(
        self,
        events: EventBatch | Iterable[SessionEvent],
        shard: int | np.ndarray = -1,
    ) -> int:
        """Buffer a batch of events; returns how many were accepted.

        An :class:`~repro.serving.service.EventBatch` is encoded in one
        vectorised pass into one contiguous blob, and ``shard`` may then
        also be one shard index per row.  Any other iterable of
        :class:`SessionEvent` (fail-safe terminals carrying an
        ``error``) is encoded record by record.  Either way the bytes
        are those of per-event :meth:`append` calls.  A ring without
        room for the whole batch accepts its longest fitting prefix and
        counts the rest as drops.
        """
        if not isinstance(events, EventBatch):
            events = list(events)
        n = len(events)
        if not n:
            return 0
        with self._lock:
            room = 0 if self._closed else self.ring_capacity - self._buffered
            accepted = min(n, room)
            self.dropped_total += n - accepted
            if accepted:
                if isinstance(events, EventBatch):
                    if accepted < n:
                        events = events[:accepted]
                        if isinstance(shard, np.ndarray):
                            shard = shard[:accepted]
                    self._push(*_encode_batch(self._seq, events, shard))
                else:
                    records = [
                        _encode_event(self._seq + k, event, shard)
                        for k, event in enumerate(events[:accepted])
                    ]
                    self._push(b"".join(records), np.array([len(r) for r in records]))
        return accepted

    def append_marker(self, kind: str, data: dict | None = None) -> bool:
        """Buffer a fleet marker with a JSON body.

        The durable record of fleet-shape decisions, interleaved with
        the event stream in append order: ``"resize"`` markers from the
        capacity level (manual resizes and the autoscaler) and
        ``"shed"`` placement-change markers from the skew level (manual
        sheds and the balancer) — so a replay can attribute any latency
        shift to the topology change that caused it.
        """
        marker = {"type": kind, **(data or {})}
        with self._lock:
            if self._closed or self._buffered >= self.ring_capacity:
                self.dropped_total += 1
                return False
            record = _encode_marker(self._seq, marker)
            self._push(record, np.array([len(record)]))
        return True

    # -- flusher -------------------------------------------------------
    def _flush_loop(self) -> None:
        while True:
            self._wake.wait(self.flush_interval_s)
            self._wake.clear()
            with self._lock:
                closed = self._closed
            try:
                self._drain()
            except Exception as exc:  # noqa: BLE001 - a failing disk must
                # surface as a recorded degradation, never kill the tick
                # loop's tee thread; the error is exposed via stats().
                with self._lock:
                    self.flusher_error = repr(exc)
            if closed:
                return

    def _drain(self) -> int:
        """Flush buffered records to the current segment; returns count."""
        with self._lock:
            if not self._buf:
                return 0
            entries = list(self._buf)
            self._buf.clear()
            n_records, self._buffered = self._buffered, 0
        data = memoryview(b"".join(blob for blob, _ in entries))
        lengths = np.concatenate([lengths for _, lengths in entries])
        ends = np.cumsum(lengths)
        total = 0
        with self._io_lock:
            i, pos = 0, 0
            while i < n_records:
                # Rotate a non-empty segment that cannot fit the next
                # record — checked per record, not per drain, so one
                # large backlog flush still honours the size cap.
                if (
                    self._file is not None
                    and self._file_bytes > _HEADER.size
                    and self._file_bytes + int(lengths[i]) > self.segment_bytes
                ):
                    self._close_segment()
                if self._file is None:
                    self._open_segment()
                assert self._file is not None
                # Coalesce every record that fits this segment into one
                # write.  An oversized record still goes out alone: a
                # segment always carries at least one record.
                room = pos + self.segment_bytes - self._file_bytes
                j = max(i + 1, int(np.searchsorted(ends, room, side="right")))
                end = int(ends[j - 1])
                self._file.write(data[pos:end])
                self._file.flush()
                if self.fsync == "always":
                    os.fsync(self._file.fileno())
                self._file_bytes += end - pos
                total += end - pos
                i, pos = j, end
        with self._lock:
            self.flushed_total += n_records
            self.bytes_written += total
        return n_records

    def _open_segment(self) -> None:
        path = self.root / f"events-{self._next_segment:08d}.seg"
        self._next_segment += 1
        self._file = path.open("wb")
        self._file.write(_HEADER.pack(SEGMENT_MAGIC, EVENTSTORE_VERSION, 0))
        self._file.flush()
        self._file_bytes = _HEADER.size
        with self._lock:
            self.segments_created += 1

    def _close_segment(self) -> None:
        assert self._file is not None
        self._file.flush()
        if self.fsync in ("always", "rotate"):
            os.fsync(self._file.fileno())
        self._file.close()
        self._file = None
        self._file_bytes = 0

    # -- lifecycle -----------------------------------------------------
    def flush(self) -> None:
        """Synchronously drain the ring to disk (tests, clean handoffs)."""
        self._drain()
        with self._io_lock:
            if self._file is not None and self.fsync != "never":
                os.fsync(self._file.fileno())

    def close(self) -> None:
        """Stop the flusher, drain everything, seal the open segment."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self._wake.set()
        self._flusher.join(timeout=5.0)
        self._drain()
        with self._io_lock:
            if self._file is not None:
                self._close_segment()

    def __enter__(self) -> "EventStoreWriter":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:  # noqa: BLE001 - interpreter-teardown close is
            # best-effort; modules the close path needs may be gone.
            return

    # -- introspection -------------------------------------------------
    @property
    def pending(self) -> int:
        """Records buffered but not yet flushed."""
        with self._lock:
            return self._buffered

    def stats(self) -> dict:
        """Writer counters, JSON-shaped for ``gateway_stats()``."""
        with self._lock:
            return {
                "appended": self.appended_total,
                "dropped": self.dropped_total,
                "flushed": self.flushed_total,
                "pending": self._buffered,
                "segments": self.segments_created,
                "bytes_written": self.bytes_written,
                "fsync": self.fsync,
                "flusher_error": self.flusher_error,
            }


def _read_exact(fh: BinaryIO, n: int) -> bytes | None:
    """``n`` bytes, or ``None`` on a clean-or-truncated short read."""
    data = fh.read(n)
    return data if len(data) == n else None


def _decode_event(payload: bytes, path: Path) -> StoredRecord:
    if len(payload) < _EVENT_FIXED.size + _U16.size:
        raise ProtocolError(f"{path}: corrupt event record")
    seq, frame, gesture, score, flags, shard, latency_us = _EVENT_FIXED.unpack_from(
        payload
    )
    offset = _EVENT_FIXED.size
    (sid_len,) = _U16.unpack_from(payload, offset)
    offset += _U16.size
    sid = payload[offset : offset + sid_len].decode("utf-8")
    offset += sid_len
    error: str | None = None
    if flags & _FLAG_HAS_ERROR:
        (err_len,) = _U32.unpack_from(payload, offset)
        offset += _U32.size
        error = payload[offset : offset + err_len].decode("utf-8")
    event = SessionEvent(
        session_id=sid,
        frame_index=frame,
        gesture=gesture,
        score=score,
        flag=bool(flags & _FLAG_UNSAFE),
        error=error,
        latency_us=latency_us,
    )
    return StoredRecord(kind="event", seq=seq, shard=shard, event=event, marker=None)


def _decode_marker(payload: bytes, path: Path) -> StoredRecord:
    if len(payload) < _U64.size + _U32.size:
        raise ProtocolError(f"{path}: corrupt marker record")
    (seq,) = _U64.unpack_from(payload)
    (blob_len,) = _U32.unpack_from(payload, _U64.size)
    blob = payload[_U64.size + _U32.size : _U64.size + _U32.size + blob_len]
    return StoredRecord(
        kind="marker", seq=seq, shard=-1, event=None,
        marker=json.loads(blob.decode("utf-8")),
    )


class EventStoreReader:
    """Replay a store directory's segments in append order.

    Iteration walks segments by index, records by file position —
    which *is* the writer's append order.  A truncated trailing record
    (crash mid-write) ends that segment's iteration cleanly; a segment
    with a foreign schema version or magic raises
    :class:`ProtocolError` (mirroring the wire protocol's refusal of
    unsupported versions); corruption *inside* a record raises too.
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)

    def segments(self) -> list[Path]:
        """Segment paths in append order."""
        return sorted(self.root.glob("events-*.seg"))

    def _iter_segment(self, path: Path) -> Iterator[StoredRecord]:
        with path.open("rb") as fh:
            header = _read_exact(fh, _HEADER.size)
            if header is None:
                raise ProtocolError(f"{path}: truncated segment header")
            magic, version, _reserved = _HEADER.unpack(header)
            if magic != SEGMENT_MAGIC:
                raise ProtocolError(f"{path}: not an event-store segment")
            if version != EVENTSTORE_VERSION:
                raise ProtocolError(
                    f"{path}: unsupported event-store version {version} "
                    f"(this reader speaks {EVENTSTORE_VERSION})"
                )
            while True:
                prefix = _read_exact(fh, _RECORD_PREFIX.size)
                if prefix is None:
                    return  # clean end or truncated prefix: stop here
                length, kind = _RECORD_PREFIX.unpack(prefix)
                payload = _read_exact(fh, length)
                if payload is None:
                    return  # truncated mid-record: recover at last whole one
                if kind == REC_EVENT:
                    yield _decode_event(payload, path)
                elif kind == REC_MARKER:
                    yield _decode_marker(payload, path)
                else:
                    raise ProtocolError(
                        f"{path}: unknown record kind {kind}"
                    )

    def iter_records(self) -> Iterator[StoredRecord]:
        """Every stored record — events and markers — in append order."""
        for path in self.segments():
            yield from self._iter_segment(path)

    def iter_markers(self) -> Iterator[dict]:
        """Decoded marker dicts (resize history etc.) in append order."""
        for record in self.iter_records():
            if record.kind == "marker":
                assert record.marker is not None
                yield record.marker

    def replay(self, session_id: str | None = None) -> Iterator[SessionEvent]:
        """Replay the live event stream from disk, bit-identically.

        Yields :class:`SessionEvent` in append order, optionally
        filtered to one session.  Equality with the live stream holds
        field-for-field (``latency_us`` is excluded from event equality
        by design, like on the live objects).
        """
        for record in self.iter_records():
            if record.kind != "event":
                continue
            assert record.event is not None
            if session_id is None or record.event.session_id == session_id:
                yield record.event

    def session_timeline(self, session_id: str) -> list[SessionEvent]:
        """One procedure's full event timeline, in frame order."""
        return list(self.replay(session_id))

    def session_ids(self) -> list[str]:
        """Distinct session ids present in the store, first-seen order."""
        seen: dict[str, None] = {}
        for event in self.replay():
            seen.setdefault(event.session_id, None)
        return list(seen)
