"""Sharded multi-process serving: fan sessions out across worker processes.

:class:`ShardedMonitorService` scales the single-process
:class:`~repro.serving.service.MonitorService` past one core and one
GIL: N worker processes each run their own ``MonitorService`` tick loop
over a private :func:`multiprocessing.Pipe`, and the router places every
session on a shard by **consistent hashing** of its session id
(:class:`_HashRing`), so placement is deterministic, independent of open
order, and minimally disturbed when a shard leaves the ring.

Parity is the design invariant: because each worker rebuilds the same
monitor from the same snapshot bytes and inference is batch-size
invariant (:mod:`repro.nn.layers.contract`), a session served by a
K-shard service emits bit-identical :class:`SessionEvent` streams to the
same session on one local ``MonitorService`` — the sharded parity suite
(``tests/serving/test_sharded.py``, ``tests/core/test_parity.py``)
locks this in for K ∈ {1, 2, 4}.

Failure semantics are fail-safe: when a worker process dies, its
sessions are not silently dropped — each one surfaces a terminal
:class:`SessionEvent` with ``error`` set and ``flag=True`` (a monitoring
outage on a surgical robot must read as *unsafe*, see
``docs/serving.md``), the sessions move to :attr:`failed_sessions`, and
the dead shard leaves the hash ring so new sessions rebalance onto the
survivors while healthy shards keep ticking.

Data moves over the **shared-memory data plane** (:mod:`.shm`): each
shard owns a frame ring ``feed()`` writes into without a reply round
trip (a full ring is the back-pressure signal) and an event ring whose
batches ``tick()``/``drain()`` read in place, so the pipe carries only
control ops.  Sessions are addressed on the rings by their global
opening ``order`` — the same integer that merges event streams — and
frame widths are validated router-side against the snapshot
(:func:`~repro.serving.snapshot.snapshot_n_features`), so a bad
``feed`` still raises synchronously.  Frame blocks the *worker*
rejects after that (the safety net) surface as deferred
``ingest_errors`` on the next exchange and fail the session safe.
``data_plane="pipe"`` restores the original ack-per-feed pipe plane.

The fleet is also **elastic** without dropping a frame:
:meth:`ShardedMonitorService.add_shard` / :meth:`remove_shard` /
:meth:`resize` move live sessions between workers by exporting their
complete serving state — pending frames, window ring contents, sticky
gesture/score context (:meth:`MonitorService.export_session` via the
:mod:`~repro.serving.snapshot` session codec) — and importing it on the
consistent-hash target, so a fleet resized mid-stream reproduces the
static single-service event stream bit for bit under the reference
backend (``tests/serving/test_elasticity.py``).
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import itertools
import logging
import math
import multiprocessing as mp
import threading
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..core.pipeline import SafetyMonitor
from ..errors import ConfigurationError, DatasetError, ShapeError, WorkerError
from ..nn.backends import DEFAULT_BACKEND, validate_backend_name
from .service import EventBatch, ServiceStats, SessionEvent, SessionResult
from .telemetry import TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .eventstore import EventStoreWriter
from .shm import (
    DEFAULT_EVENT_RING_BYTES,
    DEFAULT_FRAME_RING_BYTES,
    ShmRing,
    write_frames_blocking,
)
from .snapshot import (
    monitor_to_bytes,
    session_snapshot_id,
    snapshot_backend,
    snapshot_n_features,
)
from .transport import Reply, Request, raise_remote, recv_message
from .worker import worker_main

logger = logging.getLogger(__name__)

#: Frame interval of the paper's 30 Hz kinematics stream — the tick
#: deadline :func:`suggest_shard_count` sizes fleets against.
FRAME_INTERVAL_MS = 1000.0 / 30.0


def _stable_hash(key: str) -> int:
    """Process-independent 128-bit hash (``hash()`` is salted per run)."""
    return int.from_bytes(hashlib.md5(key.encode("utf-8")).digest(), "big")


def suggest_shard_count(
    shard_stats: dict[int, ServiceStats],
    *,
    frame_interval_ms: float = FRAME_INTERVAL_MS,
    high_watermark: float = 0.5,
    low_watermark: float = 0.1,
    min_shards: int = 1,
    max_shards: int | None = None,
) -> int:
    """Recommend a shard count from observed per-shard tick latency.

    A pure function over a :meth:`ShardedMonitorService.shard_stats`
    snapshot (no IPC, no side effects) — the policy half of the ROADMAP
    autoscaling item, usable from a cron job, the gateway's stats loop,
    or an operator script:

    - the serving deadline is one frame interval (33.3 ms at the
      paper's 30 Hz); the *busiest* shard's p99 tick latency is the
      signal, because consistent hashing makes the hottest shard the
      first to miss the deadline;
    - above ``high_watermark`` (fraction of the interval) the fleet
      scales **up** proportionally to the overshoot — tick cost is
      roughly linear in resident sessions, so doubling shards roughly
      halves the hottest shard's batch;
    - below ``low_watermark`` the fleet scales **down**, but only as far
      as keeps the *projected* busiest p99 (linear consolidation of
      today's load onto fewer workers) under half the high watermark, so
      a scale-down never triggers the next scale-up by itself;
    - inside the band the current count is kept (hysteresis).

    Shards with no recorded ticks count as idle.  The result is clamped
    to ``[min_shards, max_shards]``; an empty ``shard_stats`` returns
    ``min_shards``.
    """
    if not 0 < low_watermark < high_watermark <= 1.0:
        raise ConfigurationError(
            "need 0 < low_watermark < high_watermark <= 1"
        )
    if frame_interval_ms <= 0:
        raise ConfigurationError("frame_interval_ms must be > 0")
    if min_shards < 1:
        raise ConfigurationError("min_shards must be >= 1")
    if max_shards is not None and max_shards < min_shards:
        raise ConfigurationError("max_shards must be >= min_shards")

    def clamp(count: int) -> int:
        count = max(count, min_shards)
        if max_shards is not None:
            count = min(count, max_shards)
        return count

    n_shards = len(shard_stats)
    if n_shards == 0:
        return clamp(min_shards)
    busiest_ms = max(
        (s.percentile_ms(99) for s in shard_stats.values()), default=0.0
    )
    high_ms = high_watermark * frame_interval_ms
    low_ms = low_watermark * frame_interval_ms
    if busiest_ms > high_ms:
        return clamp(int(math.ceil(n_shards * busiest_ms / high_ms)))
    if busiest_ms < low_ms and n_shards > min_shards:
        if busiest_ms <= 0.0:
            return clamp(min_shards)
        target = int(math.ceil(n_shards * busiest_ms / (0.5 * high_ms)))
        return clamp(min(n_shards, target))
    return clamp(n_shards)


class _HashRing:
    """Consistent-hash ring with virtual nodes.

    Each shard contributes ``replicas`` points on the ring; a key lands
    on the first point clockwise from its own hash.  Removing a shard
    only re-homes the keys that pointed at it — the property that makes
    drain-and-rebalance cheap.
    """

    def __init__(self, replicas: int = 64) -> None:
        if replicas < 1:
            raise ConfigurationError("hash ring needs >= 1 replica per shard")
        self.replicas = replicas
        self._points: list[tuple[int, int]] = []  # (hash, shard), sorted

    def add(self, shard: int) -> None:
        for r in range(self.replicas):
            point = (_stable_hash(f"shard-{shard}:vnode-{r}"), shard)
            bisect.insort(self._points, point)

    def remove(self, shard: int) -> None:
        self._points = [p for p in self._points if p[1] != shard]

    def place(self, key: str) -> int:
        if not self._points:
            raise WorkerError("no live shards left in the hash ring")
        i = bisect.bisect_left(self._points, (_stable_hash(key), -1))
        if i == len(self._points):
            i = 0  # wrap around the ring
        return self._points[i][1]

    def __len__(self) -> int:
        return len(self._points)


@dataclass
class _SessionRecord:
    """Router-side bookkeeping for one placed session."""

    shard: int
    order: int  # global opening order; merge key for event streams
    events_seen: int = 0
    record_timeline: bool = True


class _ShardHandle:
    """Router-side view of one worker process, its pipe and its rings."""

    def __init__(
        self,
        index: int,
        process,
        conn,
        frame_ring: ShmRing | None = None,
        event_ring: ShmRing | None = None,
    ) -> None:
        self.index = index
        self.process = process
        self.conn = conn
        #: Router-owned shm rings (``None`` under ``data_plane="pipe"``).
        #: The router creates them in ``_spawn_shard`` and is the only
        #: side that ever unlinks — on stop, on crash, on removal.
        self.frame_ring = frame_ring
        self.event_ring = event_ring
        #: route id -> session id, for decoding event-ring batches.
        self.routes: dict[int, str] = {}
        #: ``(route, message)`` ingest failures stashed off replies until
        #: the next tick/drain converts them to fail-safe events.
        self.pending_ingest: list[tuple[int, str]] = []
        self.alive = True
        self.failure: str | None = None
        #: True while the worker may still have un-ticked frames; updated
        #: from the ``has_pending`` field piggy-backed on every reply,
        #: and set eagerly by every frame-ring write.
        self.maybe_pending = False

    def send(self, request: Request) -> None:
        try:
            self.conn.send(request)
        except (BrokenPipeError, OSError) as exc:
            raise WorkerError(f"shard {self.index} pipe broken: {exc}") from exc

    def recv(self, timeout_s: float | None) -> Reply:
        try:
            reply: Reply = recv_message(
                self.conn,
                Reply,
                timeout_s=timeout_s,
                who=f"shard {self.index}",
            )
        except WorkerError:
            # Unresponsive, or a corrupt/truncated/foreign reply — the
            # worker cannot be trusted to stay in protocol either way.
            raise
        except EOFError as exc:
            exitcode = self.process.exitcode
            raise WorkerError(
                f"shard {self.index} worker died (exitcode {exitcode})"
            ) from exc
        self.maybe_pending = reply.has_pending
        if reply.ingest_errors:
            self.pending_ingest.extend(reply.ingest_errors)
        return reply

    def request(self, request: Request, timeout_s: float | None) -> Reply:
        self.send(request)
        return self.recv(timeout_s)

    def destroy_rings(self) -> None:
        """Detach and unlink this shard's shm segments.  Idempotent."""
        for ring in (self.frame_ring, self.event_ring):
            if ring is not None:
                ring.destroy()

    def stop(self, join_timeout_s: float = 5.0) -> None:
        """Best-effort graceful stop; escalates to terminate, then kill."""
        if self.alive:
            try:
                self.send(Request("stop"))
                self.recv(join_timeout_s)
            except WorkerError as exc:
                # Not silent: the worker gets escalated to terminate()
                # below either way, but record *why* the graceful path
                # failed — a stop that routinely escalates is a bug.
                logger.warning(
                    "shard %d stop handshake failed: %s", self.index, exc
                )
        try:
            self.conn.close()
        except OSError as exc:
            logger.warning(
                "shard %d pipe close failed during stop: %s", self.index, exc
            )
        self.process.join(join_timeout_s)
        if self.process.is_alive():
            self.process.terminate()
            self.process.join(join_timeout_s)
        if self.process.is_alive():  # pragma: no cover - last resort
            self.process.kill()
            self.process.join()
        self.alive = False
        self.destroy_rings()


class ShardedMonitorService:
    """Serve sessions across N worker processes behind one façade.

    Parameters
    ----------
    monitor:
        Trained :class:`SafetyMonitor`; snapshotted once
        (:func:`~repro.serving.snapshot.monitor_to_bytes`) and shipped to
        every worker.  Pass ``monitor_bytes`` instead to reuse an
        existing snapshot (e.g. loaded from disk).
    n_shards:
        Number of worker processes.
    max_sessions_per_shard:
        Slot capacity of each worker's :class:`MonitorService`.
        Consistent hashing spreads sessions statistically, not evenly —
        leave headroom (see ``docs/serving.md``).
    start_method:
        ``multiprocessing`` start method; default prefers ``fork`` where
        available (fast) and falls back to ``spawn``.
    request_timeout_s:
        Per-request timeout on worker replies.  ``None`` (default) waits
        indefinitely; set it to surface *hung* workers as crashes.  Dead
        workers are detected immediately regardless (broken pipe).
    backend:
        Inference backend every worker's engine runs (see
        :data:`repro.nn.backends.BACKEND_NAMES`).  ``None`` resolves to
        the choice embedded in ``monitor_bytes`` (see
        :func:`~repro.serving.snapshot.monitor_to_bytes`), falling back
        to ``"reference"``.  All K shards of this service — including
        any spawned later — run the resolved plan, which is also
        embedded in the snapshot when the service serialises a live
        ``monitor`` itself.  Caller-supplied ``monitor_bytes`` are
        shipped verbatim: an explicit ``backend`` override applies to
        this fleet without rewriting the archive's own metadata.
    data_plane:
        ``"shm"`` (default) moves frames and events over per-shard
        shared-memory rings (:mod:`.shm`): ``feed()`` is a zero-ack ring
        write with ring-full back-pressure, and tick/drain event batches
        are read out of shared memory instead of being pickled.
        ``"pipe"`` restores the original everything-over-the-pipe plane
        (the pre-ring behaviour, kept for environments without POSIX
        shared memory).
    frame_ring_bytes / event_ring_bytes:
        Per-shard ring capacities under ``data_plane="shm"``; see
        :data:`~repro.serving.shm.DEFAULT_FRAME_RING_BYTES`.  Sizing
        bounds the un-ingested backlog a shard will buffer before
        ``feed()`` blocks.
    event_store:
        Optional :class:`~repro.serving.eventstore.EventStoreWriter`
        the router tees every delivered event into — live tick/drain
        events (tagged with their shard index), fail-safe crash and
        ingest-failure terminals, and a ``"resize"`` marker per
        :meth:`resize` — each exactly once, at the point it enters the
        merged stream.  Leave ``None`` when a gateway in front owns
        the tee.  Note ``drain(collect=False)`` discards live events
        inside the workers, so nothing reaches the tee for them.

    The façade mirrors the :class:`MonitorService` lifecycle —
    ``open_session`` / ``feed`` / ``tick`` / ``drain`` /
    ``close_session`` — and adds shard lifecycle: :meth:`add_shard` /
    :meth:`remove_shard` / :meth:`resize` (live migration — sessions and
    their un-ticked frames move between workers, nothing closes),
    :attr:`failed_sessions` and :meth:`close`.  It also exposes a
    per-shard sub-surface (:meth:`tick_shard`,
    :meth:`shard_maybe_pending`, …) used by the asyncio front-end
    (:class:`~repro.serving.async_frontend.AsyncShardedMonitor`).
    """

    def __init__(
        self,
        monitor: SafetyMonitor | None = None,
        n_shards: int = 2,
        max_sessions_per_shard: int = 64,
        *,
        monitor_bytes: bytes | None = None,
        start_method: str | None = None,
        request_timeout_s: float | None = None,
        hash_replicas: int = 64,
        backend: str | None = None,
        data_plane: str = "shm",
        frame_ring_bytes: int = DEFAULT_FRAME_RING_BYTES,
        event_ring_bytes: int = DEFAULT_EVENT_RING_BYTES,
        event_store: "EventStoreWriter | None" = None,
    ) -> None:
        if n_shards < 1:
            raise ConfigurationError("n_shards must be >= 1")
        if data_plane not in ("shm", "pipe"):
            raise ConfigurationError(
                f'data_plane must be "shm" or "pipe", got {data_plane!r}'
            )
        if max_sessions_per_shard < 1:
            raise ConfigurationError("max_sessions_per_shard must be >= 1")
        if (monitor is None) == (monitor_bytes is None):
            raise ConfigurationError(
                "pass exactly one of monitor / monitor_bytes"
            )
        if backend is not None:
            backend = validate_backend_name(backend)
        if monitor_bytes is None:
            assert monitor is not None
            self.backend = backend or DEFAULT_BACKEND
            # Embed the resolved choice so this snapshot — and anything
            # bootstrapped from it later — keeps running the same plan.
            monitor_bytes = monitor_to_bytes(monitor, backend=self.backend)
        else:
            # A snapshot written by a newer (or tampered) producer may
            # carry a name this version does not know — fail here with a
            # clear error rather than letting every worker die at spawn.
            self.backend = validate_backend_name(
                backend or snapshot_backend(monitor_bytes) or DEFAULT_BACKEND
            )
        self.monitor_bytes = monitor_bytes
        self.max_sessions_per_shard = int(max_sessions_per_shard)
        self.request_timeout_s = request_timeout_s
        self.data_plane = data_plane
        self.frame_ring_bytes = int(frame_ring_bytes)
        self.event_ring_bytes = int(event_ring_bytes)
        # Router-side feed validation width: with the asynchronous frame
        # ring there is no reply to carry a worker-side ShapeError, so
        # the router enforces the trained width up front (same eager
        # check MonitorService runs on its first feed).
        self._n_features = (
            snapshot_n_features(monitor_bytes) if data_plane == "shm" else None
        )
        if start_method is None:
            methods = mp.get_all_start_methods()
            start_method = "fork" if "fork" in methods else "spawn"
        self._ctx = mp.get_context(start_method)
        self._ring = _HashRing(replicas=hash_replicas)
        #: Placement overlay: sessions shed off a hot shard are pinned
        #: to their landing shard here, overriding the (load-blind)
        #: consistent-hash ring for every later placement decision.
        #: See :meth:`_place` / :meth:`shed`.
        self._overlay: dict[str, int] = {}
        self._shards: dict[int, _ShardHandle] = {}
        self._sessions: dict[str, _SessionRecord] = {}
        self.failed_sessions: dict[str, str] = {}
        self.event_store = event_store
        #: Router-side instruments: cumulative event accounting that no
        #: resize or crash can reset (the per-shard ServiceStats die
        #: with their workers; these live with the router).
        self.telemetry = TelemetryRegistry()
        #: Counter/latency baseline folded in from retired shards
        #: (graceful ``remove_shard``), so :meth:`stats` is monotonic
        #: across resizes instead of forgetting retired workers.
        self._retired_stats = ServiceStats()
        self._retired_telemetry = TelemetryRegistry()
        self._started = time.monotonic()
        self._undelivered: list[tuple[int, SessionEvent]] = []
        self._order = itertools.count()
        self._next_id = 0
        self._next_shard_index = n_shards  # indices are never reused
        self._closed = False
        self._lock = threading.Lock()  # guards crash bookkeeping
        for index in range(n_shards):
            self._spawn_shard(index)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn_shard(self, index: int) -> None:
        frame_ring = event_ring = None
        if self.data_plane == "shm":
            frame_ring = ShmRing(self.frame_ring_bytes)
            event_ring = ShmRing(self.event_ring_bytes)
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        try:
            process = self._ctx.Process(
                target=worker_main,
                args=(
                    child_conn,
                    self.monitor_bytes,
                    self.max_sessions_per_shard,
                    self.backend,
                    frame_ring.name if frame_ring is not None else None,
                    event_ring.name if event_ring is not None else None,
                ),
                name=f"monitor-shard-{index}",
                daemon=True,
            )
            process.start()
        except Exception:
            for ring in (frame_ring, event_ring):
                if ring is not None:
                    ring.destroy()
            raise
        child_conn.close()
        handle = _ShardHandle(index, process, parent_conn, frame_ring, event_ring)
        try:
            reply = handle.request(Request("ping"), timeout_s=60.0)
        except WorkerError as exc:
            handle.stop()  # also unlinks the rings just created
            raise WorkerError(f"shard {index} failed to start: {exc}") from exc
        raise_remote(reply)
        self._shards[index] = handle
        self._ring.add(index)

    def _fail_shard(
        self, handle: _ShardHandle, reason: str
    ) -> list[tuple[int, SessionEvent]]:
        """Mark a shard dead; fail its sessions; emit terminal events.

        Returns ``(order, event)`` pairs so callers can merge the crash
        events into whatever stream they are currently delivering.  The
        events carry ``flag=True``: losing the monitor mid-procedure is
        treated as unsafe, never as silently safe.
        """
        with self._lock:
            if not handle.alive:
                return []
            handle.alive = False
            handle.failure = reason
            self._ring.remove(handle.index)
            handle.routes.clear()
            out: list[tuple[int, SessionEvent]] = []
            for session_id in [
                s for s, r in self._sessions.items() if r.shard == handle.index
            ]:
                record = self._sessions.pop(session_id)
                self._overlay.pop(session_id, None)
                self.failed_sessions[session_id] = reason
                out.append(
                    (
                        record.order,
                        SessionEvent(
                            session_id=session_id,
                            frame_index=record.events_seen,
                            gesture=0,
                            score=0.0,
                            flag=True,
                            error=reason,
                        ),
                    )
                )
        if out:
            # Fail-safe terminals are accounted (and persisted) at
            # creation, not at delivery — the _undelivered queue may
            # deliver them later, but they must never tee twice.
            self.telemetry.counter("failsafe_events").inc(len(out))
            if self.event_store is not None:
                self.event_store.append_batch(
                    [event for _, event in out], shard=handle.index
                )
        try:
            handle.conn.close()
        except OSError as exc:
            # The close itself failing is secondary to the crash being
            # handled, but never silent — it would mask fd leaks.
            logger.warning(
                "closing pipe of failed shard %d: %s", handle.index, exc
            )
        if handle.process.is_alive():
            handle.process.terminate()
        # Unlink the dead shard's segments now: crash is one of the three
        # unlink paths (stop, removal, crash), so no /dev/shm entry ever
        # waits for close().  The terminated worker's own mapping stays
        # valid until it exits; unlink only removes the name.
        handle.destroy_rings()
        return out

    def _flush_undelivered(self) -> list[tuple[int, SessionEvent]]:
        with self._lock:
            flushed = self._undelivered
            self._undelivered = []
        return flushed

    def _reap_dead(self) -> list[tuple[int, SessionEvent]]:
        """Fail shards whose process died while nobody was talking to it.

        A broken pipe only surfaces on the next exchange, and idle
        shards are never contacted — this cheap liveness poll (no IPC)
        makes every tick/drain notice such deaths promptly.
        """
        pairs: list[tuple[int, SessionEvent]] = []
        for handle in self._live_shards():
            if not handle.process.is_alive():
                pairs.extend(
                    self._fail_shard(
                        handle,
                        f"shard {handle.index} worker died "
                        f"(exitcode {handle.process.exitcode})",
                    )
                )
        return pairs

    def _live_shards(self) -> list[_ShardHandle]:
        return [h for h in self._shards.values() if h.alive]

    # ------------------------------------------------------------------
    # Elasticity: live migration, add/remove/resize
    # ------------------------------------------------------------------
    def _shard_occupancy(self, index: int) -> int:
        """Number of open sessions routed to one shard (no IPC)."""
        with self._lock:
            return sum(1 for r in self._sessions.values() if r.shard == index)

    def shard_occupancy(self) -> dict[int, int]:
        """Open-session count per live shard (no IPC).

        The occupancy half of the balancer's input: paired with
        :meth:`shard_stats` it is what
        :func:`~repro.serving.balancer.plan_sheds` consumes.
        """
        with self._lock:
            occupancy = {handle.index: 0 for handle in self._live_shards()}
            for record in self._sessions.values():
                if record.shard in occupancy:
                    occupancy[record.shard] += 1
        return occupancy

    def sessions_on(self, index: int) -> list[str]:
        """Open session ids routed to one shard, in opening order (no IPC)."""
        with self._lock:
            pairs = [
                (r.order, s)
                for s, r in self._sessions.items()
                if r.shard == index
            ]
        return [session_id for _, session_id in sorted(pairs)]

    def _place(self, session_id: str) -> int:
        """Consistent-hash placement with the shed overlay applied.

        Sessions shed off a hot shard (:meth:`shed`) are pinned to their
        landing shard, so every later placement decision — park/resume
        re-import (:meth:`resolve_import`), re-open of the same id
        (:meth:`resolve_placement`), and the minimal-slice rebalance of
        :meth:`add_shard` — follows the migration instead of snapping
        back to the load-blind ring.  A pin whose target is gone
        (crashed or removed) is dropped and the session falls back to
        plain ring placement.
        """
        pinned = self._overlay.get(session_id)
        if pinned is not None:
            handle = self._shards.get(pinned)
            if handle is not None and handle.alive:
                return pinned
            self._overlay.pop(session_id, None)
        return self._ring.place(session_id)

    def shed(self, session_ids: list[str], to_shard: int) -> dict[str, int]:
        """Migrate named sessions onto an explicit shard and pin them.

        The load-aware placement actuator
        (:class:`~repro.serving.balancer.MonitorBalancer` calls this
        through the asyncio front-end): each session is live-migrated
        via the export→import path — pending frames and window state
        intact, so ticks after the shed are bit-identical to an
        unbalanced run — and pinned to ``to_shard`` in the placement
        overlay so future :meth:`feed` routing, park/resume round trips
        and ``add_shard`` rebalances all follow the move.

        Designed to race safely with a continuously evolving fleet:
        sessions closed or failed since the plan was computed are
        skipped, a full target stops the batch (``ConfigurationError``
        would hit every remaining session too), and worker crashes
        fail their sessions safe through the usual paths.  Returns
        ``{session_id: previous shard}`` for the sessions actually
        moved.

        Raises :class:`~repro.errors.WorkerError` only for a dead or
        unknown ``to_shard`` — a plan aimed at a shard that no longer
        exists is a caller bug, not a race to absorb.
        """
        self._check_open()
        target = self._shards.get(to_shard)
        if target is None or not target.alive:
            raise WorkerError(f"shard {to_shard} is not live")
        moved: dict[str, int] = {}
        for session_id in list(session_ids):
            with self._lock:
                record = self._sessions.get(session_id)
            if record is None:
                continue  # closed or failed since the plan was computed
            source = record.shard
            if source == to_shard:
                with self._lock:
                    self._overlay[session_id] = to_shard
                continue
            try:
                self._migrate_session(session_id, to_shard)
            except ConfigurationError:
                break  # target is full: no later migration can land either
            except WorkerError:
                if not target.alive:
                    break  # target died; the crash path failed the session
                continue  # source died; its sessions already failed safe
            with self._lock:
                self._overlay[session_id] = to_shard
            moved[session_id] = source
        if moved:
            self.telemetry.counter("sheds").inc()
            self.telemetry.counter("sessions_shed").inc(len(moved))
            if self.event_store is not None:
                self.event_store.append_marker(
                    "shed",
                    {"to": to_shard, "moved": dict(sorted(moved.items()))},
                )
        return moved

    def _migrate_session(self, session_id: str, target_index: int) -> None:
        """Move one live session between shards: export → import.

        No drain happens and none is needed — the exported
        :class:`~repro.serving.service.SessionState` carries the
        session's pending frames and window ring state, so the next
        :meth:`tick` advances it on the target exactly as it would have
        on the source (the resize-parity guarantee).

        Failure semantics: a full target raises ``ConfigurationError``
        *before* anything is exported (the session stays where it was);
        a source worker dying mid-export fails that shard's sessions
        through the usual crash path; a target worker dying after the
        export fail-safes the in-limbo session (terminal ``error`` event,
        :attr:`failed_sessions`) — its state died with the pipe.
        """
        record = self._record(session_id)
        source = self._shards[record.shard]
        target = self._shards.get(target_index)
        if target is None or not target.alive:
            raise WorkerError(f"shard {target_index} is not live")
        if target is source:
            return
        if self._shard_occupancy(target_index) >= self.max_sessions_per_shard:
            raise ConfigurationError(
                f"shard {target_index} is full "
                f"({self.max_sessions_per_shard} slots); cannot migrate "
                f"session {session_id!r} onto it"
            )
        try:
            reply = source.request(
                Request("migrate_out", session_id=session_id),
                self.request_timeout_s,
            )
            raise_remote(reply)
        except WorkerError as exc:
            self._queue_crash(source, str(exc))
            raise WorkerError(
                f"session {session_id!r} lost mid-migration: {exc}"
            ) from exc
        state_bytes = reply.value
        source.routes.pop(record.order, None)
        try:
            reply = target.request(
                Request(
                    "migrate_in",
                    state=state_bytes,
                    # The session keeps its global order as its route id
                    # on the target's rings — the merge key never moves.
                    route=(
                        record.order if target.frame_ring is not None else None
                    ),
                ),
                self.request_timeout_s,
            )
            raise_remote(reply)
        except WorkerError as exc:
            # Exported but never landed: the state is gone with the
            # target's pipe.  Fail the session safe rather than let it
            # vanish silently.
            self._queue_crash(target, str(exc))
            reason = f"lost migrating to shard {target_index}: {exc}"
            with self._lock:
                if session_id in self._sessions:
                    limbo = self._sessions.pop(session_id)
                    self._overlay.pop(session_id, None)
                    self.failed_sessions[session_id] = reason
                    limbo_event = SessionEvent(
                        session_id=session_id,
                        frame_index=limbo.events_seen,
                        gesture=0,
                        score=0.0,
                        flag=True,
                        error=reason,
                    )
                    self._undelivered.append((limbo.order, limbo_event))
                    self.telemetry.counter("failsafe_events").inc()
                    if self.event_store is not None:
                        self.event_store.append(limbo_event, shard=target_index)
            raise WorkerError(
                f"session {session_id!r} lost mid-migration: {exc}"
            ) from exc
        with self._lock:
            record.shard = target_index
            if target.frame_ring is not None:
                target.routes[record.order] = session_id

    def remove_shard(self, index: int) -> dict[str, int]:
        """Migrate every session off one shard, then retire the worker.

        The shard leaves the hash ring first, each of its sessions is
        re-placed on the remaining ring and live-migrated there —
        pending frames, window state and timeline intact, **no drain,
        no dropped frame, no closed session** — and the worker process
        is stopped.  Returns ``{session_id: new shard index}`` for the
        migrated sessions.

        Raises
        ------
        WorkerError
            If this is the last live shard — sessions would have
            nowhere to go, and a zero-shard service could serve nothing.
        ConfigurationError
            If a re-placement target has no free slot; the ring is
            restored and the shard keeps serving (sessions already
            migrated stay where they landed — they remain correctly
            routed either way).
        """
        handle = self._shards.get(index)
        if handle is None:
            raise ConfigurationError(f"no shard {index}")
        moved: dict[str, int] = {}
        if handle.alive:
            if len(self._live_shards()) <= 1:
                raise WorkerError(
                    "cannot remove the last live shard: its sessions "
                    "would have nowhere to migrate (resize to >= 1 "
                    "shard, or close the service)"
                )
            self._ring.remove(index)
            with self._lock:
                # A shed target being retired releases its pins: the
                # sessions fall back to ring placement below — fail-safe
                # for the balancer, no session is ever stranded on a pin
                # to a shard that no longer exists.
                for session_id in [
                    s for s, pin in self._overlay.items() if pin == index
                ]:
                    del self._overlay[session_id]
                on_shard = [
                    s for s, r in self._sessions.items() if r.shard == index
                ]
            for session_id in on_shard:
                target = self._place(session_id)
                try:
                    self._migrate_session(session_id, target)
                except WorkerError:
                    if not handle.alive:
                        # The source died: its remaining sessions were
                        # failed safe by the crash path; stop migrating.
                        break
                    continue  # a target died; its crash is queued — go on
                except Exception:
                    # Capacity (ConfigurationError) or any unexpected
                    # rejection: keep serving, placements restored.
                    self._ring.add(index)
                    raise
                else:
                    moved[session_id] = target
            if handle.alive:
                self._retire_shard_counters(handle)
                handle.stop()
        del self._shards[index]
        return moved

    def _retire_shard_counters(self, handle: _ShardHandle) -> None:
        """Fold a retiring shard's lifetime counters into the baseline.

        Without this, every graceful scale-down silently *shrank* the
        aggregate :meth:`stats` and telemetry — the retired worker's
        ``n_ticks``/``frames_processed``/``events_emitted`` vanished
        with its pipe.  Fetched best-effort: a shard that dies during
        its own retirement interview simply contributes nothing.
        """
        try:
            final = self.stats_of(handle.index)
        except WorkerError:
            return
        base = self._retired_stats
        base.n_ticks += final.n_ticks
        base.frames_processed += final.frames_processed
        base.events_emitted += final.events_emitted
        base.extend_ms(final.tick_ms)
        try:
            self._retired_telemetry.merge(self.telemetry_of(handle.index))
        except WorkerError:
            return

    def add_shard(self) -> int:
        """Spawn one new worker and rebalance the minimal hash slice.

        The new shard joins the ring under a never-reused index, and
        only the sessions whose consistent-hash placement *changed* —
        exactly the keys the new ring points at it — are live-migrated
        onto it (frames and window state intact).  Everything else is
        untouched: that minimality is the point of consistent hashing.

        Returns the new shard's index.
        """
        self._check_open()
        index = self._next_shard_index
        self._spawn_shard(index)
        self._next_shard_index = index + 1
        with self._lock:
            records = list(self._sessions.items())
        for session_id, record in records:
            with self._lock:
                if self._sessions.get(session_id) is not record:
                    continue  # failed or closed since the snapshot
            target = self._place(session_id)
            if target == record.shard:
                continue
            try:
                self._migrate_session(session_id, target)
            except WorkerError:
                # Crash bookkeeping (source or target) already queued the
                # fail-safe events; keep rebalancing the survivors.  A
                # dead new shard has left the ring, so later placements
                # simply stop moving.
                continue
        return index

    def resize(self, target_k: int) -> dict:
        """Live-resize the fleet to ``target_k`` shards (the actuator).

        Applies :meth:`add_shard` / :meth:`remove_shard` until the live
        shard count matches — this is what turns a
        :func:`suggest_shard_count` recommendation into reality without
        a fleet rebuild and without interrupting a single session
        (:class:`~repro.serving.autoscaler.MonitorAutoscaler` runs this
        loop under hysteresis).  Scale-down retires the highest-index
        shards first; indices are never reused.

        Returns a summary dict: ``{"from", "to", "added", "removed",
        "migrated"}`` (``migrated`` counts sessions that changed shard).
        """
        if target_k < 1:
            raise ConfigurationError("target_k must be >= 1")
        self._check_open()
        before = self.n_shards
        with self._lock:
            placement = {s: r.shard for s, r in self._sessions.items()}
        added: list[int] = []
        removed: list[int] = []
        while self.n_shards < target_k:
            added.append(self.add_shard())
        while self.n_shards > target_k:
            victim = max(h.index for h in self._live_shards())
            self.remove_shard(victim)
            removed.append(victim)
        with self._lock:
            migrated = sum(
                1
                for s, r in self._sessions.items()
                if placement.get(s, r.shard) != r.shard
            )
        summary = {
            "from": before,
            "to": self.n_shards,
            "added": added,
            "removed": removed,
            "migrated": migrated,
        }
        self.telemetry.counter("resizes").inc()
        if self.event_store is not None:
            self.event_store.append_marker("resize", summary)
        return summary

    def close(self) -> None:
        """Stop every worker process (graceful ``stop``, then terminate).

        Does **not** drain: call :meth:`drain` first if un-ticked frames
        must still be processed, and :meth:`close_session` for the
        timelines.  Idempotent.
        """
        if self._closed:
            return
        self._closed = True
        for handle in self._shards.values():
            handle.stop()
        self._shards.clear()

    def __enter__(self) -> "ShardedMonitorService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter shutdown
        try:
            self.close()
        except Exception as exc:  # noqa: BLE001 - a destructor must not
            # raise, but the failure is still recorded (debug level: at
            # interpreter shutdown even logging may be torn down, hence
            # the inner suppress).
            with contextlib.suppress(Exception):
                logger.debug("close() during __del__ failed: %s", exc)

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        """Number of live shards (dead workers are excluded)."""
        return len(self._live_shards())

    @property
    def shard_indices(self) -> list[int]:
        """Indices of live shards."""
        return [h.index for h in self._live_shards()]

    def shard_of(self, session_id: str) -> int:
        """Shard index an open session lives on."""
        return self._record(session_id).shard

    def resolve_placement(self, session_id: str | None = None) -> tuple[str, int]:
        """Allocate/validate a session id and compute its shard (no IPC).

        Split from :meth:`open_on_shard` so the asyncio front-end can
        take the target shard's lock *before* the blocking pipe call.
        """
        self._check_open()
        if session_id is None:
            session_id = f"session-{self._next_id:04d}"
            self._next_id += 1
            while session_id in self._sessions or session_id in self.failed_sessions:
                session_id = f"session-{self._next_id:04d}"
                self._next_id += 1
        elif session_id in self._sessions:
            raise ConfigurationError(f"session {session_id!r} is already open")
        return session_id, self._place(session_id)

    def open_on_shard(
        self, session_id: str, shard: int, record_timeline: bool = True
    ) -> str:
        """Open a resolved placement on its shard (the IPC half)."""
        handle = self._shards.get(shard)
        if handle is None or not handle.alive:
            raise WorkerError(f"shard {shard} is not live")
        # The global opening order doubles as the session's route id on
        # the shm rings, so it is allocated *before* the open request and
        # shipped with it (a failed open just burns a counter value).
        order = next(self._order)
        try:
            reply = handle.request(
                Request(
                    "open",
                    session_id=session_id,
                    record_timeline=record_timeline,
                    route=order if handle.frame_ring is not None else None,
                ),
                self.request_timeout_s,
            )
        except WorkerError as exc:
            self._queue_crash(handle, str(exc))
            raise
        raise_remote(reply)
        with self._lock:  # _fail_shard may iterate from another thread
            self._sessions[session_id] = _SessionRecord(
                shard=shard,
                order=order,
                record_timeline=record_timeline,
            )
            if handle.frame_ring is not None:
                handle.routes[order] = session_id
        # An explicit re-open of a crash-failed id starts a new life for
        # it (the gateway's crash recovery does exactly this); the stale
        # failure record must not shadow the new session.
        self.failed_sessions.pop(session_id, None)
        return session_id

    # ------------------------------------------------------------------
    # Session lifecycle (MonitorService-mirroring façade)
    # ------------------------------------------------------------------
    @property
    def n_open_sessions(self) -> int:
        """Number of currently open (non-failed) sessions."""
        return len(self._sessions)

    @property
    def session_ids(self) -> list[str]:
        """Open session ids in global opening order."""
        with self._lock:  # snapshot; opens/crashes may run concurrently
            return list(self._sessions)

    @property
    def has_pending(self) -> bool:
        """True while any live shard may still have un-ticked frames."""
        return any(h.maybe_pending for h in self._live_shards())

    def open_session(
        self, session_id: str | None = None, record_timeline: bool = True
    ) -> str:
        """Place a session on its consistent-hash shard and open it there.

        Semantics mirror :meth:`MonitorService.open_session`; capacity is
        per shard, so a full target shard raises ``ConfigurationError``
        even when other shards have room (placement is by hash, not by
        load — see ``docs/serving.md`` for sizing guidance).
        """
        session_id, shard = self.resolve_placement(session_id)
        return self.open_on_shard(session_id, shard, record_timeline)

    def feed(self, session_id: str, frames: np.ndarray) -> None:
        """Enqueue kinematics frames on the session's shard.

        Under the shm data plane this is a single copy into the shard's
        frame ring — **no reply round trip**.  Back-pressure replaces the
        ack: a full ring blocks until the worker frees space (bounded by
        ``request_timeout_s`` when set).  Shape and width are validated
        here, synchronously, against the snapshot's trained width;
        anything the worker itself rejects later surfaces on the next
        :meth:`tick`/:meth:`drain` as that session's fail-safe terminal
        event.

        Raises :class:`~repro.errors.WorkerError` if the session was lost
        to a worker crash (failed sessions are never silently re-opened),
        :class:`~repro.errors.ShapeError` on a frame-width mismatch.
        """
        self._check_open()
        record = self._record(session_id)
        handle = self._shards[record.shard]
        if handle.frame_ring is None:  # data_plane="pipe": ack'd round trip
            try:
                reply = handle.request(
                    Request(
                        "feed", session_id=session_id, frames=np.asarray(frames)
                    ),
                    self.request_timeout_s,
                )
            except WorkerError as exc:
                self._queue_crash(handle, str(exc))
                raise WorkerError(
                    f"session {session_id!r} lost: {exc}"
                ) from exc
            raise_remote(reply)
            return
        frames = np.asarray(frames, dtype=float)
        if frames.ndim == 1:
            frames = frames[None, :]
        if frames.ndim != 2:
            raise ShapeError(
                f"frames must be (n, n_features), got shape {frames.shape}"
            )
        if frames.shape[0] == 0:
            return
        if self._n_features is not None and frames.shape[1] != self._n_features:
            raise ShapeError(
                f"monitor was trained for {self._n_features} kinematics "
                f"features, got frames with {frames.shape[1]}"
            )
        if not handle.process.is_alive():
            reason = (
                f"shard {handle.index} worker died "
                f"(exitcode {handle.process.exitcode})"
            )
            self._queue_crash(handle, reason)
            raise WorkerError(f"session {session_id!r} lost: {reason}")
        try:
            write_frames_blocking(
                handle.frame_ring,
                record.order,
                frames,
                alive=handle.process.is_alive,
                timeout_s=self.request_timeout_s,
                who=f"shard {handle.index}",
            )
        except WorkerError as exc:
            self._queue_crash(handle, str(exc))
            raise WorkerError(f"session {session_id!r} lost: {exc}") from exc
        handle.maybe_pending = True

    def tick_shard(self, index: int) -> list[SessionEvent]:
        """Advance one shard by one frame per pending session.

        Returns that shard's events (session opening order) plus any
        queued crash events; a crash of *this* shard is converted to its
        sessions' terminal events rather than an exception, so callers
        can keep ticking the survivors.
        """
        pairs = self._flush_undelivered() + self._reap_dead()
        handle = self._shards.get(index)
        if handle is not None and handle.alive:
            try:
                reply = handle.request(Request("tick"), self.request_timeout_s)
                raise_remote(reply)
                for tick_events in self._collect_ticks(handle, reply.value):
                    pairs.extend(self._account_events(tick_events))
            except WorkerError as exc:
                pairs.extend(self._fail_shard(handle, str(exc)))
        pairs.extend(self._ingest_failures())
        pairs.sort(key=lambda p: p[0])
        return [event for _, event in pairs]

    def tick(self) -> list[SessionEvent]:
        """Advance every live shard by one frame per pending session.

        Requests are broadcast before replies are collected, so shards
        compute their ticks concurrently; events merge in global session
        opening order — the same order one :class:`MonitorService` over
        the same sessions would produce.  Dead shards surface as
        terminal per-session events, never as an exception.
        """
        pairs = self._flush_undelivered() + self._reap_dead()
        targets = [h for h in self._live_shards() if h.maybe_pending]
        sent: list[_ShardHandle] = []
        for handle in targets:
            try:
                handle.send(Request("tick"))
                sent.append(handle)
            except WorkerError as exc:
                pairs.extend(self._fail_shard(handle, str(exc)))
        for handle in sent:
            try:
                reply = handle.recv(self.request_timeout_s)
                raise_remote(reply)
                for tick_events in self._collect_ticks(handle, reply.value):
                    pairs.extend(self._account_events(tick_events))
            except WorkerError as exc:
                pairs.extend(self._fail_shard(handle, str(exc)))
        pairs.extend(self._ingest_failures())
        pairs.sort(key=lambda p: p[0])
        return [event for _, event in pairs]

    def drain(self, collect: bool = True) -> list[SessionEvent]:
        """Tick every shard until no live shard has pending frames.

        Each worker drains its own backlog in a single round trip, so K
        shards drain concurrently.  With ``collect=True`` the per-tick
        event lists are interleaved tick-by-tick across shards (matching
        a single service's drain order); with ``collect=False`` only
        crash events (if any) are returned — those are never dropped.
        """
        pairs = self._flush_undelivered() + self._reap_dead()
        tick_lists: dict[int, list[tuple[int, SessionEvent]]] = {}
        targets = [h for h in self._live_shards() if h.maybe_pending]
        sent = []
        for handle in targets:
            try:
                handle.send(Request("drain", collect=collect))
                sent.append(handle)
            except WorkerError as exc:
                pairs.extend(self._fail_shard(handle, str(exc)))
        for handle in sent:
            try:
                reply = handle.recv(self.request_timeout_s)
                raise_remote(reply)
                n_ring, overflow, progress = reply.value
                ticks = self._collect_ticks(handle, (n_ring, overflow))
                for k, tick_events in enumerate(ticks):
                    tick_lists.setdefault(k, []).extend(
                        self._account_events(tick_events)
                    )
                # Authoritative per-session frame counts from the worker:
                # keeps crash-event frame indices exact even when events
                # were not collected (collect=False returns no ticks).
                for session_id, frames_done in progress.items():
                    record = self._sessions.get(session_id)
                    if record is not None:
                        record.events_seen = frames_done
            except WorkerError as exc:
                pairs.extend(self._fail_shard(handle, str(exc)))
        pairs.extend(self._ingest_failures())
        events = [event for _, event in sorted(pairs, key=lambda p: p[0])]
        for k in sorted(tick_lists):
            events.extend(
                event for _, event in sorted(tick_lists[k], key=lambda p: p[0])
            )
        return events

    def close_session(self, session_id: str) -> SessionResult:
        """Free the session's slot on its shard; return its timeline.

        A session lost to a crash raises :class:`WorkerError` naming the
        failure (its id stays in :attr:`failed_sessions`).
        """
        self._check_open()
        record = self._record(session_id)
        handle = self._shards[record.shard]
        try:
            reply = handle.request(
                Request("close", session_id=session_id), self.request_timeout_s
            )
        except WorkerError as exc:
            self._queue_crash(handle, str(exc))
            raise WorkerError(f"session {session_id!r} lost: {exc}") from exc
        raise_remote(reply)
        with self._lock:
            del self._sessions[session_id]
            self._overlay.pop(session_id, None)
            handle.routes.pop(record.order, None)
        return reply.value

    # ------------------------------------------------------------------
    # Session export / import (gateway resume + external checkpointing)
    # ------------------------------------------------------------------
    def export_session(self, session_id: str) -> bytes:
        """Remove a live session from the fleet, returning its state.

        The returned bytes are the :func:`session_to_bytes` archive —
        pending frames and window ring state included — so a later
        :meth:`import_session` resumes the session bit-identically, on
        this fleet or another one with the same monitor snapshot.  This
        is :meth:`_migrate_session`'s export half exposed as a public
        primitive; the gateway parks disconnected sessions with it.

        Raises :class:`~repro.errors.WorkerError` if the session was
        lost to a crash or its worker dies mid-export.
        """
        self._check_open()
        record = self._record(session_id)
        handle = self._shards[record.shard]
        try:
            reply = handle.request(
                Request("migrate_out", session_id=session_id),
                self.request_timeout_s,
            )
            raise_remote(reply)
        except WorkerError as exc:
            self._queue_crash(handle, str(exc))
            raise WorkerError(
                f"session {session_id!r} lost mid-export: {exc}"
            ) from exc
        with self._lock:
            self._sessions.pop(session_id, None)
            handle.routes.pop(record.order, None)
        return reply.value

    def resolve_import(self, state: bytes) -> tuple[str, int]:
        """Validate an exported archive and compute its shard (no IPC).

        The session keeps the id embedded in its snapshot, so placement
        is by that id's hash — an export/import round trip lands a
        session exactly where a fresh open of the same id would.  Split
        from :meth:`import_on_shard` for the same reason as
        :meth:`resolve_placement`: the asyncio front-end takes the
        target shard's lock before the blocking pipe call.

        Raises :class:`~repro.errors.ConfigurationError` if the archive
        is foreign-versioned or the id is already open.
        """
        self._check_open()
        session_id = session_snapshot_id(state)
        if session_id in self._sessions:
            raise ConfigurationError(f"session {session_id!r} is already open")
        # _place, not the raw ring: a shed session that was parked for
        # resume re-imports onto its pinned shard, keeping the
        # balancer's placement stable across disconnect/reconnect.
        return session_id, self._place(session_id)

    def import_on_shard(
        self, state: bytes, session_id: str, shard: int,
        record_timeline: bool = True,
    ) -> str:
        """Land a resolved import on its shard (the IPC half)."""
        handle = self._shards.get(shard)
        if handle is None or not handle.alive:
            raise WorkerError(f"shard {shard} is not live")
        if self._shard_occupancy(shard) >= self.max_sessions_per_shard:
            raise ConfigurationError(
                f"shard {shard} is full "
                f"({self.max_sessions_per_shard} slots); cannot import "
                f"session {session_id!r} onto it"
            )
        order = next(self._order)
        try:
            reply = handle.request(
                Request(
                    "migrate_in",
                    state=state,
                    route=order if handle.frame_ring is not None else None,
                ),
                self.request_timeout_s,
            )
        except WorkerError as exc:
            self._queue_crash(handle, str(exc))
            raise WorkerError(
                f"session {session_id!r} lost mid-import: {exc}"
            ) from exc
        raise_remote(reply)
        with self._lock:
            self._sessions[session_id] = _SessionRecord(
                shard=shard,
                order=order,
                record_timeline=record_timeline,
            )
            if handle.frame_ring is not None:
                handle.routes[order] = session_id
        # An import that re-opens a previously crash-failed id clears the
        # failure record — the imported state supersedes it.
        self.failed_sessions.pop(session_id, None)
        return session_id

    def import_session(
        self, state: bytes, record_timeline: bool = True
    ) -> str:
        """Re-admit an exported session; returns its (unchanged) id.

        The inverse of :meth:`export_session`: the session resumes on
        its hash-placed shard with pending frames and window state
        intact, so subsequent ticks are bit-identical to a never-
        exported run.
        """
        session_id, shard = self.resolve_import(state)
        return self.import_on_shard(state, session_id, shard, record_timeline)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def shard_maybe_pending(self, index: int) -> bool:
        """True while shard ``index`` is live and may have pending frames."""
        handle = self._shards.get(index)
        return handle is not None and handle.alive and handle.maybe_pending

    def take_undelivered_events(self) -> list[SessionEvent]:
        """Drain events queued outside a tick (crashes, shard removal).

        Crashes detected outside a tick (e.g. by a failing :meth:`feed`)
        queue their sessions' terminal events, and :meth:`remove_shard`
        queues the events of its final drain; both normally deliver on
        the next :meth:`tick`/:meth:`drain`.  Callers that cannot
        guarantee a further tick — the asyncio front-end after a
        ``WorkerError``, or its idle poll — use this to claim them
        immediately instead; events are only ever delivered once, by
        whichever path gets there first.

        Also runs the no-IPC liveness poll, so a worker that dies while
        its shard is idle (nothing to tick, nothing talking to it) still
        surfaces its sessions' fail-safe terminal events here.
        """
        pairs = (
            self._flush_undelivered() + self._reap_dead() + self._ingest_failures()
        )
        pairs.sort(key=lambda p: p[0])
        return [event for _, event in pairs]

    def stats_of(self, index: int) -> ServiceStats:
        """One live shard's :class:`ServiceStats` (one IPC exchange).

        The single-shard primitive behind :meth:`shard_stats`, split out
        so callers that serialise pipe access per shard — the asyncio
        front-end's :meth:`AsyncShardedMonitor.shard_stats`, and the
        remote gateway's ``gateway_stats()`` — can poll one worker under
        that shard's lock without touching the others' pipes.
        """
        handle = self._shards.get(index)
        if handle is None or not handle.alive:
            raise WorkerError(f"shard {index} is not live")
        try:
            reply = handle.request(Request("stats"), self.request_timeout_s)
            raise_remote(reply)
        except WorkerError as exc:
            self._queue_crash(handle, str(exc))
            raise
        return reply.value

    def shard_stats(self) -> dict[int, ServiceStats]:
        """Per-live-shard :class:`ServiceStats` (one IPC each)."""
        out: dict[int, ServiceStats] = {}
        for handle in self._live_shards():
            try:
                out[handle.index] = self.stats_of(handle.index)
            except WorkerError:
                continue  # crash queued by stats_of; skip the dead shard
        return out

    def stats(self) -> ServiceStats:
        """Aggregate stats: summed counters, merged tick-latency samples.

        Shards tick concurrently, so summed ``n_ticks`` counts worker
        ticks, not wall-clock rounds; percentiles describe the per-shard
        tick latency distribution.  Counters include every shard this
        fleet ever retired (see :meth:`_retire_shard_counters`), so the
        aggregate is monotonic across resizes, and ``uptime_s`` is the
        fleet's own lifetime, not the youngest worker's.
        """
        merged = ServiceStats()
        merged.n_ticks = self._retired_stats.n_ticks
        merged.frames_processed = self._retired_stats.frames_processed
        merged.events_emitted = self._retired_stats.events_emitted
        merged.extend_ms(self._retired_stats.tick_ms)
        merged._started = self._started
        for stats in self.shard_stats().values():
            merged.n_ticks += stats.n_ticks
            merged.frames_processed += stats.frames_processed
            merged.events_emitted += stats.events_emitted
            merged.extend_ms(stats.tick_ms)
        return merged

    @property
    def uptime_s(self) -> float:
        """Monotonic seconds since this fleet was constructed."""
        return time.monotonic() - self._started

    def telemetry_of(self, index: int) -> dict:
        """One live shard's telemetry snapshot (one IPC exchange).

        The per-shard primitive behind :meth:`telemetry_snapshot`, split
        out like :meth:`stats_of` so lock-per-shard callers (the asyncio
        front-end, the gateway) can poll one worker at a time.
        """
        handle = self._shards.get(index)
        if handle is None or not handle.alive:
            raise WorkerError(f"shard {index} is not live")
        try:
            reply = handle.request(Request("telemetry"), self.request_timeout_s)
            raise_remote(reply)
        except WorkerError as exc:
            self._queue_crash(handle, str(exc))
            raise
        return reply.value

    def router_telemetry_snapshot(self) -> dict:
        """The no-IPC half of :meth:`telemetry_snapshot`.

        Retired shards' registries plus the router's own incident
        counters — everything that does not require talking to a
        worker, split out so lock-per-shard callers (the asyncio
        front-end) can combine it with per-shard polls.
        """
        merged = TelemetryRegistry()
        merged.merge(self._retired_telemetry.snapshot())
        merged.merge(self.telemetry.snapshot())
        return merged.snapshot()

    def telemetry_snapshot(self) -> dict:
        """Fleet-wide telemetry: every live shard + retired + router.

        Merges each worker's registry (event counts, alert-latency
        histograms), the registries of shards retired by resizes, and
        the router's own incident counters (``failsafe_events``,
        ``events_delivered``, ``resizes``) into one
        :meth:`~repro.serving.telemetry.TelemetryRegistry.snapshot`
        dict.  Cumulative across resizes by construction.
        """
        merged = TelemetryRegistry()
        merged.merge(self.router_telemetry_snapshot())
        for handle in self._live_shards():
            try:
                merged.merge(self.telemetry_of(handle.index))
            except WorkerError:
                continue  # crash queued by telemetry_of; skip the dead shard
        return merged.snapshot()

    # ------------------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ConfigurationError(
                "service is closed; no further sessions can be served"
            )

    def _record(self, session_id: str) -> _SessionRecord:
        record = self._sessions.get(session_id)
        if record is None:
            reason = self.failed_sessions.get(session_id)
            if reason is not None:
                raise WorkerError(f"session {session_id!r} failed: {reason}")
            raise DatasetError(f"no open session {session_id!r}")
        return record

    def _account_events(
        self, batch: EventBatch
    ) -> list[tuple[int, SessionEvent]]:
        """Deliver one shard tick: ``(order, event)`` pairs, teed once."""
        events = batch.events()
        pairs = []
        shards = []
        records = map(self._sessions.get, batch.session_ids)
        for record, event in zip(records, events):
            if record is None:  # closed concurrently; still deliver
                pairs.append((-1, event))
                shards.append(-1)
                continue
            record.events_seen += 1
            pairs.append((record.order, event))
            shards.append(record.shard)
        if self.event_store is not None and events:
            self.event_store.append_batch(batch, shard=np.array(shards, dtype=np.int32))
        if events:
            self.telemetry.counter("events_delivered").inc(len(events))
        return pairs

    def _queue_crash(self, handle: _ShardHandle, reason: str) -> None:
        """Fail a shard outside a tick; its events deliver on the next one."""
        pairs = self._fail_shard(handle, reason)
        if pairs:
            with self._lock:
                self._undelivered.extend(pairs)

    # ------------------------------------------------------------------
    # Shm data plane: event-ring decode and deferred ingest failures
    # ------------------------------------------------------------------
    def _collect_ticks(
        self, handle: _ShardHandle, value: tuple
    ) -> list[EventBatch]:
        """Materialise one tick/drain reply's event batches in order.

        ``value`` is the worker's ``(n_ring_batches, overflow_ticks)``:
        the first ``n_ring_batches`` ticks are read off the shard's event
        ring, the overflow ticks (ring momentarily full, or the pipe-only
        data plane where every tick overflows) ride the reply itself —
        chronological order is ring batches then overflow.
        """
        n_ring, overflow = value
        ticks: list[EventBatch] = []
        for _ in range(n_ring):
            batch = (
                handle.event_ring.read_events()
                if handle.event_ring is not None
                else None
            )
            if batch is None:
                raise WorkerError(
                    f"shard {handle.index} event ring out of sync: "
                    f"announced batch missing"
                )
            ticks.append(self._decode_event_batch(handle, batch))
        ticks.extend(overflow)
        return ticks

    def _decode_event_batch(
        self, handle: _ShardHandle, record: np.ndarray
    ) -> EventBatch:
        """One ring record's columns as an :class:`EventBatch`."""
        session_ids = list(map(handle.routes.get, record["route"].tolist()))
        batch = EventBatch(
            session_ids,
            record["frame"].astype(np.int64),
            record["gesture"],
            record["score"],
            (record["flags"] & 1).astype(bool),
            record["latency_us"],
        )
        if None in session_ids:  # pragma: no cover - protocol guard
            known = np.array([sid is not None for sid in session_ids])
            for route in record["route"][~known].tolist():
                logger.warning(
                    "shard %d emitted an event for unknown route %d",
                    handle.index,
                    route,
                )
            batch = batch[known]
        return batch

    def _ingest_failures(self) -> list[tuple[int, SessionEvent]]:
        """Convert stashed frame-ring rejections to fail-safe events.

        The asynchronous data plane has no feed reply to raise through:
        a frame block the worker rejected (after the router's own width
        check — so: a true anomaly) arrives as ``(route, message)`` on a
        later reply, and this turns each one into the same terminal
        treatment a crash gets — ``failed_sessions`` entry plus a
        ``flag=True`` event naming the cause.
        """
        pairs: list[tuple[int, SessionEvent]] = []
        for handle in self._shards.values():
            if not handle.pending_ingest:
                continue
            stashed, handle.pending_ingest = handle.pending_ingest, []
            for route, message in stashed:
                session_id = handle.routes.pop(route, None)
                if session_id is None:
                    continue  # already failed or closed
                reason = (
                    f"shard {handle.index} rejected frames for session "
                    f"{session_id!r}: {message}"
                )
                with self._lock:
                    record = self._sessions.pop(session_id, None)
                    if record is None:
                        continue
                    self._overlay.pop(session_id, None)
                    self.failed_sessions[session_id] = reason
                    failure_event = SessionEvent(
                        session_id=session_id,
                        frame_index=record.events_seen,
                        gesture=0,
                        score=0.0,
                        flag=True,
                        error=reason,
                    )
                    pairs.append((record.order, failure_event))
                    self.telemetry.counter("failsafe_events").inc()
                    if self.event_store is not None:
                        self.event_store.append(
                            failure_event, shard=handle.index
                        )
        return pairs
