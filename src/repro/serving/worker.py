"""Shard worker: one process, one :class:`MonitorService`, one pipe.

:func:`worker_main` is the entry point the sharded router spawns for
every shard.  It rebuilds the trained monitor from the snapshot bytes it
was handed (:func:`repro.serving.snapshot.monitor_from_bytes` — no code
or pickled objects cross the process boundary, only arrays and JSON),
then serves until told to stop or the router side of the pipe disappears.

Under the default shared-memory data plane (:mod:`repro.serving.shm`)
the pipe carries control ops only; the bulk traffic moves through two
rings the router created for this shard:

- **frame ring** (in): the worker drains it into its service before
  dispatching *any* pipe request — so a ``feed`` written to the ring is
  always ordered ahead of the ``tick``/``close``/``migrate_out`` that
  followed it on the router thread — and opportunistically between
  requests (a short pipe poll timeout), which is what frees space for a
  back-pressured writer even when no request is in flight.
- **event ring** (out): the columns of each tick's
  :class:`~repro.serving.service.EventBatch` are copied into one
  :data:`~repro.serving.shm.EVENT_DTYPE` record; the pipe reply carries
  only the batch count.  If the ring is momentarily full the remaining
  batches of that reply fall back to the pipe (``overflow``), so events
  are never dropped and never deadlock the drain.

A frame block the service rejects (a safety net — the router validates
shape and width before writing) cannot raise in ``feed()`` any more,
because there is no reply to raise through: the worker evicts the
session and reports ``(route, error)`` in ``Reply.ingest_errors`` on
the next exchange, and the router fails the session safe from there.

Worker-side exceptions are converted to error replies (the worker keeps
serving its other sessions); only a broken pipe or an explicit ``stop``
ends the process.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from ..errors import WorkerError
from ..nn.backends import DEFAULT_BACKEND
from .service import EventBatch, MonitorService
from .shm import EVENT_DTYPE, ShmRing
from .snapshot import monitor_from_bytes, session_from_bytes, session_to_bytes
from .transport import Reply, Request, error_reply, recv_message

#: Pipe poll timeout between requests when a frame ring is attached: the
#: upper bound on how long a back-pressured ``feed()`` waits for the
#: worker to free ring space while no request is in flight.
RING_POLL_S = 0.002


class _ShardWorker:
    """Per-process worker state: the service, the rings, the route map."""

    def __init__(
        self,
        service: MonitorService,
        frame_ring: ShmRing | None,
        event_ring: ShmRing | None,
    ) -> None:
        self.service = service
        self.frame_ring = frame_ring
        self.event_ring = event_ring
        #: session id -> route id; the inverse map addresses ring frames.
        self._routes: dict[str, int] = {}
        self._sessions_by_route: dict[int, str] = {}
        #: Deferred (route, message) ingest failures, reported on the
        #: next reply (see module docstring).
        self._ingest_errors: list[tuple[int, str]] = []
        #: Reusable event-encoding scratch, grown on demand.
        self._event_scratch = np.empty(service.max_sessions, dtype=EVENT_DTYPE)

    # ------------------------------------------------------------------
    # Routes
    # ------------------------------------------------------------------
    def bind_route(self, session_id: str, route: int | None) -> None:
        if route is None:
            return
        self._routes[session_id] = route
        self._sessions_by_route[route] = session_id

    def drop_route(self, session_id: str) -> None:
        route = self._routes.pop(session_id, None)
        if route is not None:
            self._sessions_by_route.pop(route, None)

    # ------------------------------------------------------------------
    # Frame ring ingest
    # ------------------------------------------------------------------
    def consume_frames(self) -> None:
        """Drain every pending frame block into the service."""
        ring = self.frame_ring
        if ring is None:
            return
        while True:
            record = ring.read_frames()
            if record is None:
                return
            route, frames = record
            session_id = self._sessions_by_route.get(route)
            if session_id is None:
                self._ingest_errors.append(
                    (route, f"frames for unknown route {route}")
                )
                continue
            try:
                self.service.feed(session_id, frames)
            except Exception as exc:  # noqa: BLE001 - reduced to a
                # deferred ingest error: there is no feed reply to carry
                # it, so evict the session and report on the next
                # exchange (the router fails it safe).
                self._ingest_errors.append(
                    (route, f"{type(exc).__name__}: {exc}")
                )
                self.drop_route(session_id)
                try:
                    self.service.close_session(session_id)
                except Exception as evict_exc:  # noqa: BLE001 - the slot
                    # is already gone; nothing further to free.
                    del evict_exc

    def take_ingest_errors(self) -> tuple:
        errors, self._ingest_errors = tuple(self._ingest_errors), []
        return errors

    # ------------------------------------------------------------------
    # Event ring egress
    # ------------------------------------------------------------------
    def _encode_events(self, batch: EventBatch) -> np.ndarray:
        """Copy one tick's columns into an :data:`EVENT_DTYPE` record."""
        n = len(batch)
        if n > self._event_scratch.shape[0]:
            self._event_scratch = np.empty(n, dtype=EVENT_DTYPE)
        record = self._event_scratch[:n]
        record["route"] = np.fromiter(
            map(self._routes.__getitem__, batch.session_ids), dtype=np.uint64, count=n
        )
        record["frame"] = batch.frame
        record["gesture"] = batch.gesture
        record["score"] = batch.score
        record["flags"] = batch.flag
        record["latency_us"] = batch.latency_us
        return record

    def emit_events(
        self, ticks: list[EventBatch]
    ) -> tuple[int, list[EventBatch]]:
        """Write per-tick event batches to the ring, oldest first.

        Returns ``(n_ring_batches, overflow_ticks)``.  Once one batch
        fails to fit, the rest of this reply's ticks go to the pipe as
        well (*sticky overflow*), so chronological order is simply
        "ring batches, then overflow batches" and a reader can never
        interleave them wrongly.
        """
        if self.event_ring is None:
            return 0, ticks
        n_ring = 0
        for k, batch in enumerate(ticks):
            if not batch or not self.event_ring.try_write_events(
                self._encode_events(batch)
            ):
                return n_ring, ticks[k:]
            n_ring += 1
        return n_ring, []


def _dispatch(worker: _ShardWorker, request: Request) -> Reply:
    """Execute one request against the worker's local service."""
    service = worker.service
    op = request.op
    if op == "open":
        session_id = service.open_session(
            request.session_id, record_timeline=request.record_timeline
        )
        worker.bind_route(session_id, request.route)
        return Reply(ok=True, value=session_id)
    if op == "feed":  # pipe-only data plane (fallback mode)
        assert request.session_id is not None
        service.feed(request.session_id, request.frames)
        return Reply(ok=True)
    if op == "tick":
        n_ring, overflow = worker.emit_events([service.tick_batch()])
        return Reply(ok=True, value=(n_ring, overflow))
    if op == "drain":
        if request.collect:
            ticks = []
            while service.has_pending:
                ticks.append(service.tick_batch())
        else:
            service.drain(collect=False)
            ticks = []
        n_ring, overflow = worker.emit_events(ticks)
        # Per-session progress rides along so the router's frame
        # accounting stays exact even when events are not collected.
        progress = {sid: service.frames_done(sid) for sid in service.session_ids}
        return Reply(ok=True, value=(n_ring, overflow, progress))
    if op == "close":
        assert request.session_id is not None
        result = service.close_session(request.session_id)
        worker.drop_route(request.session_id)
        return Reply(ok=True, value=result)
    if op == "migrate_out":
        assert request.session_id is not None
        state = service.export_session(request.session_id, remove=True)
        worker.drop_route(request.session_id)
        return Reply(ok=True, value=session_to_bytes(state))
    if op == "migrate_in":
        assert request.state is not None
        state = session_from_bytes(request.state)
        session_id = service.import_session(state)
        worker.bind_route(session_id, request.route)
        return Reply(ok=True, value=session_id)
    if op == "stats":
        return Reply(ok=True, value=service.stats)
    if op == "telemetry":
        return Reply(ok=True, value=service.telemetry.snapshot())
    if op in ("ping", "stop"):
        return Reply(ok=True)
    return Reply(ok=False, error_type="WorkerError", error=f"unknown op {op!r}")


def worker_main(
    conn,
    monitor_blob: bytes,
    max_sessions: int,
    backend: str = DEFAULT_BACKEND,
    frame_ring_name: str | None = None,
    event_ring_name: str | None = None,
) -> None:
    """Serve one shard until ``stop`` or the pipe closes.

    Parameters
    ----------
    conn:
        Worker end of the duplex pipe to the router.
    monitor_blob:
        :func:`~repro.serving.snapshot.monitor_to_bytes` archive to
        bootstrap the shard's :class:`SafetyMonitor` from.
    max_sessions:
        Slot capacity of this shard's :class:`MonitorService`.
    backend:
        Inference backend name for this shard's engine.  The router
        passes every shard the same resolved choice so a K-shard fleet
        runs one plan (see :data:`repro.nn.backends.BACKEND_NAMES`).
    frame_ring_name / event_ring_name:
        Names of the router-owned shared-memory rings to attach
        (:mod:`repro.serving.shm`), or ``None`` for the pipe-only data
        plane.  The worker only ever *detaches* — segment unlinking is
        the router's job, on close, resize and crash alike.
    """
    monitor = monitor_from_bytes(monitor_blob)
    service = MonitorService(monitor, max_sessions=max_sessions, backend=backend)
    frame_ring = (
        ShmRing(name=frame_ring_name, attach=True)
        if frame_ring_name is not None
        else None
    )
    event_ring = (
        ShmRing(name=event_ring_name, attach=True)
        if event_ring_name is not None
        else None
    )
    worker = _ShardWorker(service, frame_ring, event_ring)
    try:
        while True:
            try:
                if frame_ring is not None:
                    worker.consume_frames()
                    if not conn.poll(RING_POLL_S):
                        continue
                request: Request = recv_message(conn, Request, who="router")
            except EOFError:
                break  # router is gone; nothing left to serve
            except WorkerError as exc:
                # Corrupt or foreign message on an intact stream: report
                # it and keep serving — the shard's sessions outlive bad
                # input.
                try:
                    conn.send(error_reply(exc, has_pending=service.has_pending))
                except (BrokenPipeError, OSError):
                    break
                continue
            # Ring frames written before this request must land first
            # (feed -> tick ordering is the parity contract).
            worker.consume_frames()
            try:
                reply = _dispatch(worker, request)
            except Exception as exc:  # noqa: BLE001 - reduced to an error reply
                reply = error_reply(exc, has_pending=service.has_pending)
            else:
                reply = dataclasses.replace(reply, has_pending=service.has_pending)
            reply = dataclasses.replace(
                reply, ingest_errors=worker.take_ingest_errors()
            )
            try:
                conn.send(reply)
            except (BrokenPipeError, OSError):
                break
            if request.op == "stop":
                break
    finally:
        if frame_ring is not None:
            frame_ring.close()
        if event_ring is not None:
            event_ring.close()
        conn.close()
