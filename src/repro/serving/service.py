"""Multi-stream monitoring service: the batched online serving engine.

The paper frames deployment as continuous runtime monitoring of live
procedures, which means many simultaneous sessions rather than one
offline replay.  :class:`MonitorService` manages N concurrent trajectory
sessions (open / feed / close lifecycle) against a single trained
:class:`~repro.core.pipeline.SafetyMonitor`.  Each :meth:`MonitorService.tick`
advances every session with pending frames by one frame and runs each
pipeline stage **once** on the windows that became ready across all
sessions — one model invocation per stage per tick, instead of one per
stream — via the ring-buffered
:class:`~repro.kinematics.windows.StreamingWindowBatch`.

Model invocations go through a pluggable
:class:`~repro.nn.backends.InferenceBackend` (the ``backend``
constructor argument).  The default ``"reference"`` backend is
bit-exact and batch-size invariant (see
:meth:`repro.nn.Sequential.predict_proba`), so a session served here
emits bit-for-bit the same gestures and scores as an isolated
:meth:`~repro.core.pipeline.SafetyMonitor.stream` run over the same
frames — the parity test suite locks this in.  The ``"compiled"`` /
``"compiled-f32"`` backends trade that bit-exactness (they agree within
``atol=1e-6``) for roughly half the tick cost: folded scalers, BLAS
contractions and zero steady-state allocations (see
:mod:`repro.nn.backends` and ``docs/serving.md``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from itertools import compress, repeat
from typing import TYPE_CHECKING

import numpy as np

from ..errors import ConfigurationError, DatasetError, ShapeError
from ..gestures.vocabulary import Gesture
from ..kinematics.windows import StreamingWindowBatch, WindowSlotState
from ..nn.backends import (
    DEFAULT_BACKEND,
    InferenceBackend,
    make_backend,
    validate_backend_name,
)
from .telemetry import TelemetryRegistry

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (core -> serving)
    from ..core.pipeline import SafetyMonitor
    from .eventstore import EventStoreWriter


@dataclass(frozen=True, init=False)
class SessionEvent:
    """One monitored frame of one session.

    Mirrors the tuple yielded by :meth:`SafetyMonitor.stream`:
    ``gesture`` is 0 while the gesture stage is warming up, ``score`` the
    current unsafe probability, ``flag`` the thresholded decision.

    ``error`` is ``None`` for ordinary monitoring events.  The sharded
    service (:class:`~repro.serving.sharded.ShardedMonitorService`) sets
    it on the single *terminal* event it emits per session lost to a
    worker crash; such events carry ``flag=True`` — a failed monitor is
    reported unsafe, never silently safe (fail-safe contract, see
    ``docs/serving.md``).

    ``latency_us`` is observability metadata — frame ingest (``feed``)
    to event emission, in microseconds, ``0.0`` when the emitting layer
    did not measure it — and is deliberately **excluded from equality**
    (``compare=False``): two runs of the same frames are bit-identical
    on every monitored field regardless of wall-clock, which is what
    the parity and chaos suites assert.
    """

    session_id: str
    frame_index: int
    gesture: int
    score: float
    flag: bool
    error: str | None = None
    latency_us: float = field(default=0.0, compare=False, repr=False)

    def __init__(
        self,
        session_id: str,
        frame_index: int,
        gesture: int,
        score: float,
        flag: bool,
        error: str | None = None,
        latency_us: float = 0.0,
    ) -> None:
        # Written out rather than generated: a tick builds one event per
        # advanced session, and the generated frozen ``__init__`` pays
        # one ``object.__setattr__`` call per field.  Storing the fields
        # key by key, in field order, keeps the instance dict key-shared.
        fields = self.__dict__
        fields["session_id"] = session_id
        fields["frame_index"] = frame_index
        fields["gesture"] = gesture
        fields["score"] = score
        fields["flag"] = flag
        fields["error"] = error
        fields["latency_us"] = latency_us


@dataclass(frozen=True, eq=False)
class EventBatch:
    """One tick's events as columns: the engine's native tick result.

    Struct of arrays aligned row by row — row ``i`` is the event of
    session ``session_ids[i]``.  :meth:`MonitorService.tick_batch`
    builds it straight from the engine's per-slot arrays; the event
    store encodes it in one vectorised pass
    (:meth:`~repro.serving.eventstore.EventStoreWriter.append_batch`)
    and a shard worker copies it column by column into its shm event
    ring, so no per-event Python object exists between the tick and
    the public edge.  :meth:`events` materialises the
    :class:`SessionEvent` list that :meth:`MonitorService.tick` returns.

    Batch rows are ordinary monitoring events: ``error`` is ``None`` on
    every row (fail-safe terminals travel as :class:`SessionEvent`).
    """

    session_ids: list[str]
    frame: np.ndarray  # int64 frame index within the session
    gesture: np.ndarray  # int64, 0 while the gesture stage warms up
    score: np.ndarray  # float64 unsafe probability (raw bits preserved)
    flag: np.ndarray  # bool, score >= the monitor threshold
    latency_us: np.ndarray  # float64 feed -> emission, observability only

    def __len__(self) -> int:
        return len(self.session_ids)

    def __getitem__(self, rows: slice | np.ndarray) -> "EventBatch":
        """The rows picked by a slice, a boolean mask or an index array."""
        if isinstance(rows, slice):
            session_ids = self.session_ids[rows]
        else:
            session_ids = np.asarray(self.session_ids, dtype=object)[rows].tolist()
        return EventBatch(
            session_ids,
            self.frame[rows],
            self.gesture[rows],
            self.score[rows],
            self.flag[rows],
            self.latency_us[rows],
        )

    @classmethod
    def empty(cls) -> "EventBatch":
        """A zero-row batch (an idle tick)."""
        return cls(
            [],
            np.empty(0, dtype=np.int64),
            np.empty(0, dtype=np.int64),
            np.empty(0),
            np.empty(0, dtype=bool),
            np.empty(0),
        )

    def events(self) -> list[SessionEvent]:
        """The rows as :class:`SessionEvent` objects, in row order."""
        return list(
            map(
                SessionEvent,
                self.session_ids,
                self.frame.tolist(),
                self.gesture.tolist(),
                self.score.tolist(),
                self.flag.tolist(),
                repeat(None),
                self.latency_us.tolist(),
            )
        )


@dataclass
class SessionResult:
    """Full per-frame timeline of a closed session."""

    session_id: str
    gestures: np.ndarray
    unsafe_scores: np.ndarray
    unsafe_flags: np.ndarray

    @property
    def n_frames(self) -> int:
        """Number of frames the session processed before closing."""
        return int(self.gestures.shape[0])


@dataclass
class SessionState:
    """Complete portable state of one live session (migration unit).

    Produced by :meth:`MonitorService.export_session` and consumed by
    :meth:`MonitorService.import_session`: everything a session *is* —
    progress counters, recorded timeline, un-ticked pending frames, the
    per-slot ring state of both pipeline stages and the sticky
    gesture/score context — as plain arrays and scalars (no code, no
    live objects), so the state can cross a process boundary through the
    :mod:`repro.serving.snapshot` codec
    (:func:`~repro.serving.snapshot.session_to_bytes`).

    A session imported into any engine built from the same trained
    monitor continues *bit-identically* under the reference backend: the
    ring rows, emission counters and pending backlog reproduce exactly
    the windows the un-migrated session would have seen.

    ``n_features`` (and both window states) are ``None`` when the source
    service had not yet bound its feature width — a session that was
    opened but never fed.
    """

    session_id: str
    frames_done: int
    record_timeline: bool
    current_gesture: int
    current_score: float
    gestures: np.ndarray  # recorded timeline (empty when not recording)
    scores: np.ndarray
    pending: np.ndarray  # (n, n_features) un-ticked frames, feed order
    n_features: int | None
    gesture_window: WindowSlotState | None
    error_window: WindowSlotState | None

    @property
    def pending_frames(self) -> int:
        """Number of un-ticked frames travelling with the state."""
        return int(self.pending.shape[0])


#: Per-tick latency samples retained for percentile queries.  A service
#: monitoring live procedures ticks indefinitely (~2.6M/day at 30 Hz), so
#: the raw history must be bounded; totals keep counting past the window.
TICK_HISTORY = 65536


@dataclass
class ServiceStats:
    """Latency accounting across ticks (populated by :meth:`tick`).

    The most recent ``capacity`` per-tick latencies live in a
    preallocated ring ndarray, so :meth:`record` is one scalar store and
    the reductions (:meth:`percentile_ms`, :meth:`mean_ms`) slice the
    ring in place instead of re-materialising the history per query.
    ``n_ticks``, ``frames_processed`` and ``events_emitted`` count the
    full service lifetime, past the retained window, and
    :attr:`uptime_s` is monotonic wall-clock since construction —
    rebased (not reset) when the stats object crosses a worker pipe.
    """

    capacity: int = TICK_HISTORY
    n_ticks: int = 0
    frames_processed: int = 0
    events_emitted: int = 0
    _ring: np.ndarray = field(init=False, repr=False, compare=False)
    _cursor: int = field(default=0, init=False, repr=False)
    _filled: int = field(default=0, init=False, repr=False)
    _started: float = field(
        default_factory=time.monotonic, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ConfigurationError("stats capacity must be >= 1")
        self.capacity = int(self.capacity)
        self._ring = np.zeros(self.capacity)

    @property
    def uptime_s(self) -> float:
        """Monotonic seconds since this stats object started counting."""
        return time.monotonic() - self._started

    def record(self, tick_ms: float, n_frames: int) -> None:
        """Account one executed tick."""
        self._ring[self._cursor] = tick_ms
        self._cursor = (self._cursor + 1) % self.capacity
        if self._filled < self.capacity:
            self._filled += 1
        self.n_ticks += 1
        self.frames_processed += n_frames
        self.events_emitted += n_frames

    @property
    def tick_ms(self) -> np.ndarray:
        """Retained per-tick latencies in chronological order (copy)."""
        if self._filled < self.capacity:
            return self._ring[: self._filled].copy()
        return np.concatenate(
            [self._ring[self._cursor :], self._ring[: self._cursor]]
        )

    def extend_ms(self, values: np.ndarray) -> None:
        """Bulk-append latency samples (chronologically ordered).

        Counters are untouched — this merges *retained windows*, e.g.
        when :meth:`ShardedMonitorService.stats` folds per-shard stats
        into one aggregate.
        """
        values = np.asarray(values, dtype=float).reshape(-1)
        if values.size >= self.capacity:
            self._ring[:] = values[-self.capacity :]
            self._cursor = 0
            self._filled = self.capacity
            return
        first = min(self.capacity - self._cursor, values.size)
        self._ring[self._cursor : self._cursor + first] = values[:first]
        rest = values.size - first
        if rest:
            self._ring[:rest] = values[first:]
        self._cursor = (self._cursor + values.size) % self.capacity
        self._filled = min(self._filled + values.size, self.capacity)

    def __getstate__(self) -> dict:
        """Pickle only the recorded samples, not the preallocated ring.

        Stats cross the worker pipe on every ``stats`` request; shipping
        the full ``capacity``-sized ring (512 KB at the default) for a
        handful of recorded ticks would tax every poll.
        """
        return {
            "capacity": self.capacity,
            "n_ticks": self.n_ticks,
            "frames_processed": self.frames_processed,
            "events_emitted": self.events_emitted,
            "uptime_s": self.uptime_s,
            "tick_ms": self.tick_ms,
        }

    def __setstate__(self, state: dict) -> None:
        self.capacity = state["capacity"]
        self.n_ticks = state["n_ticks"]
        self.frames_processed = state["frames_processed"]
        self.events_emitted = state.get("events_emitted", 0)
        # Rebase the start so uptime keeps advancing on the receiving
        # side of a pipe instead of restarting from zero.
        self._started = time.monotonic() - state.get("uptime_s", 0.0)
        self._ring = np.zeros(self.capacity)
        self._cursor = 0
        self._filled = 0
        self.extend_ms(state["tick_ms"])

    def percentile_ms(self, q: float) -> float:
        """``q``-th percentile of recent per-tick latency in milliseconds."""
        if not self._filled:
            return 0.0
        return float(np.percentile(self._ring[: self._filled], q))

    def mean_ms(self) -> float:
        """Mean recent per-tick latency in milliseconds."""
        if not self._filled:
            return 0.0
        return float(np.mean(self._ring[: self._filled]))


#: Initial per-slot depth of the pending-frame ring.  The ring doubles
#: when a feed outgrows it and returns to this depth once every slot has
#: drained, so a one-off backlog burst does not pin its memory.
PENDING_RING_DEPTH = 16


class _Session:
    """Internal per-session state: identity and recorded timeline.

    Pending input and progress live in the service's per-slot arrays
    (the pending ring, ``frames_done``), not here.
    """

    __slots__ = ("id", "slot", "record_timeline", "gestures", "scores")

    def __init__(self, session_id: str, slot: int, record_timeline: bool) -> None:
        self.id = session_id
        self.slot = slot
        self.record_timeline = record_timeline
        self.gestures: list[int] = []
        self.scores: list[float] = []


class MonitorService:
    """Serve N concurrent monitoring sessions over one trained monitor.

    Parameters
    ----------
    monitor:
        The trained two-stage :class:`SafetyMonitor` shared by all
        sessions.
    max_sessions:
        Number of preallocated stream slots (concurrently open sessions).
    backend:
        Inference backend name (see
        :data:`repro.nn.backends.BACKEND_NAMES`): ``"reference"``
        (default — bit-exact, batch-invariant), ``"compiled"``
        (folded-scaler zero-allocation plan, ``atol=1e-6`` vs the
        reference) or ``"compiled-f32"`` (additionally float32
        execution).  One backend instance is built per trained model at
        construction, with scratch sized to ``max_sessions``.
    event_store:
        Optional :class:`~repro.serving.eventstore.EventStoreWriter`
        every tick tees its events into (fire-and-forget: the writer's
        bounded ring absorbs or drop-counts, never blocks the tick).
        Leave ``None`` when a higher layer — sharded router or gateway
        — owns the tee, so each event is persisted exactly once.

    Lifecycle
    ---------
    :meth:`open_session` reserves a slot, :meth:`feed` enqueues frames
    (any number, any cadence), :meth:`tick` advances every session with
    pending input by exactly one frame and returns the resulting
    :class:`SessionEvent` per advanced session, :meth:`close_session`
    frees the slot and returns the session's full :class:`SessionResult`
    timeline.  :meth:`drain` ticks until no session has pending input.
    """

    def __init__(
        self,
        monitor: "SafetyMonitor",
        max_sessions: int = 64,
        backend: str = DEFAULT_BACKEND,
        event_store: "EventStoreWriter | None" = None,
    ) -> None:
        if max_sessions < 1:
            raise ConfigurationError("max_sessions must be >= 1")
        self.monitor = monitor
        self.max_sessions = int(max_sessions)
        self.backend = validate_backend_name(backend)
        self.stats = ServiceStats()
        self.event_store = event_store
        self.telemetry = TelemetryRegistry()
        self._sessions: dict[str, _Session] = {}
        self._free_slots: list[int] = list(range(max_sessions - 1, -1, -1))
        self._next_id = 0
        # Window batches and the pending ring are allocated on the first
        # feed, when the kinematics feature width becomes known.
        self._gesture_batch: StreamingWindowBatch | None = None
        self._error_batch: StreamingWindowBatch | None = None
        self._n_features: int | None = None
        self._g_frames_scratch: np.ndarray | None = None
        self._feature_idx: np.ndarray | None = None
        self._current_gesture = np.zeros(max_sessions, dtype=np.int64)
        self._current_score = np.zeros(max_sessions)
        # Per-slot columns the tick reads and writes with fancy indexing.
        self._slot_ids = np.empty(max_sessions, dtype=object)
        self._frames_done = np.zeros(max_sessions, dtype=np.int64)
        self._recording = np.zeros(max_sessions, dtype=bool)
        #: Open slots in session opening order (rebuilt lazily after an
        #: open/close/import/eviction changed the set).
        self._order: np.ndarray | None = None
        # Pending ring: slot s holds count[s] frames starting at
        # head[s] (mod depth) in pending[s], each with its feed stamp.
        self._pending: np.ndarray | None = None
        self._pending_ts: np.ndarray | None = None
        self._head = np.zeros(max_sessions, dtype=np.int64)
        self._count = np.zeros(max_sessions, dtype=np.int64)
        self._n_pending = 0
        #: Backend cache per pipeline stage, keyed by the *model object*
        #: the backend was built from — fit() rebinds ``.model`` to a new
        #: object, so identity is the retrain signal.
        self._gesture_backend: tuple[object, InferenceBackend] | None = None
        self._error_backends: dict[Gesture, tuple[object, InferenceBackend]] = {}
        self._build_backends()

    def _make_backend(self, classifier) -> InferenceBackend:
        """One backend for a classifier's (scaler, model), scratch sized
        to the slot count."""
        return make_backend(
            self.backend,
            classifier.scaler,
            classifier.model,
            max_batch=self.max_sessions,
        )

    def _build_backends(self) -> None:
        """Compile every already-trained stage's backend up front."""
        classifier = self.monitor.gesture_classifier
        if classifier.model is not None:
            self._gesture_backend = (classifier.model, self._make_backend(classifier))
        for gesture, clf in self.monitor.library.classifiers.items():
            if clf.model is not None:
                self._error_backends[gesture] = (clf.model, self._make_backend(clf))

    def _gesture_backend_or_none(self) -> InferenceBackend | None:
        """The gesture-stage backend, tracking the classifier's model.

        Backends are normally built at construction, but the pre-backend
        engine looked the model up on every tick — so a stage trained
        *after* the service was created must not be served as silently
        all-safe, and a *retrained* stage (``fit`` rebinds ``.model`` to
        a new object) must not keep serving stale weights.  Both are
        caught here by comparing model identity.
        """
        classifier = self.monitor.gesture_classifier
        model = classifier.model
        if model is None:
            self._gesture_backend = None
            return None
        if self._gesture_backend is None or self._gesture_backend[0] is not model:
            self._gesture_backend = (model, self._make_backend(classifier))
        return self._gesture_backend[1]

    def _error_backend_or_none(
        self, gesture: Gesture
    ) -> InferenceBackend | None:
        """The gesture's error-stage backend (same contract as above)."""
        clf = self.monitor.library.classifiers.get(gesture)
        if clf is None or clf.model is None:
            self._error_backends.pop(gesture, None)
            return None
        cached = self._error_backends.get(gesture)
        if cached is None or cached[0] is not clf.model:
            cached = (clf.model, self._make_backend(clf))
            self._error_backends[gesture] = cached
        return cached[1]

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def n_open_sessions(self) -> int:
        """Number of currently open sessions."""
        return len(self._sessions)

    @property
    def session_ids(self) -> list[str]:
        """Open session ids in opening order."""
        return list(self._sessions)

    @property
    def has_pending(self) -> bool:
        """True while any open session has unprocessed frames."""
        return self._n_pending > 0

    def pending_frames(self, session_id: str) -> int:
        """Number of fed-but-unprocessed frames of one session."""
        return int(self._count[self._get(session_id).slot])

    def frames_done(self, session_id: str) -> int:
        """Number of frames one session has processed (ticked) so far."""
        return int(self._frames_done[self._get(session_id).slot])

    def open_session(
        self, session_id: str | None = None, record_timeline: bool = True
    ) -> str:
        """Reserve a stream slot; returns the session id.

        Parameters
        ----------
        session_id:
            Explicit id (e.g. an operating-theatre identifier), or
            ``None`` for an auto-generated ``session-NNNN`` id that is
            guaranteed not to collide with explicitly taken names.
        record_timeline:
            With ``record_timeline=False`` the session skips accumulating
            its per-frame gesture/score arrays (``close_session`` then
            returns empty timelines) — use for indefinitely long sessions
            whose consumers only read the per-tick :class:`SessionEvent`
            stream, where an unbounded timeline would leak memory.

        Returns
        -------
        str
            The session id to use with :meth:`feed` /
            :meth:`close_session`.

        Raises
        ------
        ConfigurationError
            If ``session_id`` is already open, or all ``max_sessions``
            slots are in use.

        The slot's ring-buffer window state is reset on reuse, so a new
        procedure always starts from a fresh stream.
        """
        if session_id is None:
            session_id = f"session-{self._next_id:04d}"
            self._next_id += 1
            while session_id in self._sessions:  # explicit id took the name
                session_id = f"session-{self._next_id:04d}"
                self._next_id += 1
        elif session_id in self._sessions:
            raise ConfigurationError(f"session {session_id!r} is already open")
        if not self._free_slots:
            raise ConfigurationError(
                f"all {self.max_sessions} session slots are in use"
            )
        slot = self._free_slots.pop()
        self._bind_slot(_Session(session_id, slot, record_timeline))
        self._current_gesture[slot] = 0
        self._current_score[slot] = 0.0
        if self._gesture_batch is not None:
            self._gesture_batch.reset(np.array([slot]))
        if self._error_batch is not None:
            self._error_batch.reset(np.array([slot]))
        return session_id

    def feed(self, session_id: str, frames: np.ndarray) -> None:
        """Enqueue kinematics frames for a session.

        Parameters
        ----------
        session_id:
            An open session (anything else raises ``DatasetError``).
        frames:
            ``(n, n_features)`` kinematics rows, or a single
            ``(n_features,)`` frame; any number, any cadence.  Frames are
            consumed one per :meth:`tick`, in feed order.  The rows are
            copied into the service's pending ring, so the caller may
            reuse or mutate the array as soon as ``feed`` returns.

        Raises
        ------
        ShapeError
            If the frame width disagrees with the width the service was
            bound to on its first feed (or with the monitor's trained
            width, checked eagerly on that first feed).
        DatasetError
            If no session ``session_id`` is open, or any value in
            ``frames`` is NaN or infinite.  Non-finite kinematics are
            refused whole — the monitor fails closed rather than score
            garbage as a silent "safe".

        The first successful feed allocates the service's shared ring
        buffers and permanently binds its feature width.
        """
        session = self._get(session_id)
        frames = np.asarray(frames, dtype=float)
        if frames.ndim == 1:
            frames = frames[None, :]
        if frames.ndim != 2:
            raise ShapeError(
                f"frames must be (n, n_features), got shape {frames.shape}"
            )
        if frames.shape[0] == 0:
            return
        self._ensure_buffers(frames.shape[1])
        if frames.shape[1] != self._n_features:
            raise ShapeError(
                f"service is bound to {self._n_features} features, "
                f"got frames with {frames.shape[1]}"
            )
        if not np.isfinite(frames).all():
            raise DatasetError(
                f"session {session_id!r}: non-finite kinematics frame "
                f"(NaN or inf) rejected"
            )
        self._enqueue(session.slot, frames, time.perf_counter())

    def close_session(self, session_id: str) -> SessionResult:
        """Free the session's slot and return its full timeline.

        Pending (un-ticked) frames are discarded; call :meth:`drain`
        first to process them.
        """
        session = self._get(session_id)
        self._release(session)
        scores = np.asarray(session.scores)
        return SessionResult(
            session_id=session_id,
            gestures=np.asarray(session.gestures, dtype=int),
            unsafe_scores=scores,
            unsafe_flags=(scores >= self.monitor.threshold).astype(int),
        )

    # ------------------------------------------------------------------
    # Migration
    # ------------------------------------------------------------------
    def export_session(
        self, session_id: str, *, remove: bool = False
    ) -> SessionState:
        """Snapshot one session's complete serving state.

        The returned :class:`SessionState` carries everything needed to
        continue the session elsewhere — progress, recorded timeline,
        **pending (un-ticked) frames**, and the ring/emission state of
        both pipeline stages — so no drain is required before a
        migration and no frame is ever dropped by one.

        Parameters
        ----------
        session_id:
            An open session (``DatasetError`` otherwise).
        remove:
            With ``remove=True`` the session is also evicted — its slot
            freed with no :class:`SessionResult` produced — which is the
            *migrate-out* half of a live migration.  The default leaves
            the session untouched (a consistent point-in-time copy).
        """
        session = self._get(session_id)
        slot = session.slot
        if self._pending is not None:
            depth = self._pending.shape[1]
            rows = (self._head[slot] + np.arange(self._count[slot])) % depth
            pending = self._pending[slot, rows]
        else:
            pending = np.empty((0, 0))
        gesture_window: WindowSlotState | None = None
        error_window: WindowSlotState | None = None
        if self._gesture_batch is not None:
            assert self._error_batch is not None
            gesture_window = self._gesture_batch.export_slot(session.slot)
            error_window = self._error_batch.export_slot(session.slot)
        state = SessionState(
            session_id=session.id,
            frames_done=int(self._frames_done[slot]),
            record_timeline=session.record_timeline,
            current_gesture=int(self._current_gesture[session.slot]),
            current_score=float(self._current_score[session.slot]),
            gestures=np.asarray(session.gestures, dtype=np.int64),
            scores=np.asarray(session.scores, dtype=float),
            pending=pending,
            n_features=self._n_features,
            gesture_window=gesture_window,
            error_window=error_window,
        )
        if remove:
            self._release(session)
        return state

    def import_session(self, state: SessionState) -> str:
        """Adopt a session exported from another (or this) service.

        The receiving service must serve the same trained monitor (same
        window configurations and feature width); the session resumes
        exactly where the export left it — the next :meth:`tick`
        advances it onto the frame it would have processed had it never
        moved, with identical window contents.

        Raises
        ------
        ConfigurationError
            If the session id is already open here, or no slot is free.
        ShapeError
            If the state's feature width or window shapes disagree with
            this service's binding.
        """
        if state.session_id in self._sessions:
            raise ConfigurationError(
                f"session {state.session_id!r} is already open"
            )
        if not self._free_slots:
            raise ConfigurationError(
                f"all {self.max_sessions} session slots are in use"
            )
        if state.n_features is not None:
            self._ensure_buffers(state.n_features)
            if state.n_features != self._n_features:
                raise ShapeError(
                    f"service is bound to {self._n_features} features, "
                    f"imported session carries {state.n_features}"
                )
        # Validate window state against this service's batches before
        # mutating anything, so a mismatched import leaves no trace.
        if (state.gesture_window is not None) != (state.error_window is not None):
            raise ConfigurationError(
                "session state must carry both window states or neither"
            )
        slot = self._free_slots.pop()
        try:
            if self._gesture_batch is not None:
                assert self._error_batch is not None
                self._gesture_batch.reset(np.array([slot]))
                self._error_batch.reset(np.array([slot]))
                if state.gesture_window is not None:
                    self._gesture_batch.import_slot(slot, state.gesture_window)
                    self._error_batch.import_slot(slot, state.error_window)
        except ShapeError:
            self._free_slots.append(slot)
            raise
        session = _Session(state.session_id, slot, state.record_timeline)
        session.gestures = [int(g) for g in state.gestures]
        session.scores = [float(s) for s in state.scores]
        self._bind_slot(session)
        self._frames_done[slot] = int(state.frames_done)
        pending = np.asarray(state.pending, dtype=float)
        if pending.shape[0]:
            # Migrated frames are re-stamped at import: latency counts
            # time in *this* service, not transit (states don't carry
            # cross-process monotonic clocks).
            self._enqueue(slot, pending, time.perf_counter())
        self._current_gesture[slot] = int(state.current_gesture)
        self._current_score[slot] = float(state.current_score)
        return state.session_id

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def tick(self) -> list[SessionEvent]:
        """Advance every session with pending input by one frame.

        Runs the gesture stage **once** over all gesture windows that
        became ready this tick, then the error stage once per distinct
        active gesture over the ready error windows — one model forward
        per stage per tick, regardless of how many sessions advanced.

        Returns
        -------
        list[SessionEvent]
            One event per advanced session, in session opening order;
            empty when no session had pending frames (an idle tick is a
            no-op and is not recorded in :attr:`stats`).  Events report
            gesture 0 and score 0.0 while a session's windows are still
            warming up.

        This is :meth:`tick_batch` with its :class:`EventBatch`
        materialised as :class:`SessionEvent` objects.  Each non-empty
        tick appends one latency sample to :attr:`stats`.
        """
        if not self._n_pending:
            return []
        return self.tick_batch().events()

    def tick_batch(self) -> EventBatch:
        """:meth:`tick`, returning the events as one :class:`EventBatch`.

        The columnar form every internal consumer takes — the event
        store tee, the shard worker's shm event ring — without building
        a Python object per event.  Rows are in session opening order;
        an idle tick returns an empty batch.
        """
        if not self._n_pending:
            return EventBatch.empty()
        start = time.perf_counter()
        assert (
            self._gesture_batch is not None
            and self._error_batch is not None
            and self._pending is not None
            and self._pending_ts is not None
        )
        order = self._order
        if order is None:
            order = self._order = np.fromiter(
                (s.slot for s in self._sessions.values()),
                dtype=np.int64,
                count=len(self._sessions),
            )
        slots = order[self._count[order] > 0]
        # One gather pops the head frame of every advanced slot.
        head = self._head[slots]
        frames = self._pending[slots, head]
        fed_at = self._pending_ts[slots, head]
        self._head[slots] = (head + 1) % self._pending.shape[1]
        self._count[slots] -= 1
        self._n_pending -= slots.size

        if self._feature_idx is None:
            g_frames = frames
        else:
            assert self._g_frames_scratch is not None
            g_frames = self._g_frames_scratch[: slots.size]
            np.take(frames, self._feature_idx, axis=1, out=g_frames)
        g_ready, g_windows = self._gesture_batch.push(g_frames, slots)
        if g_ready.any():
            gesture_backend = self._gesture_backend_or_none()
            if gesture_backend is not None:
                self._current_gesture[slots[g_ready]] = (
                    gesture_backend.predict(g_windows) + 1
                )

        e_ready, e_windows = self._error_batch.push(frames, slots)
        if e_ready.any():
            e_slots = slots[e_ready]
            gestures = self._current_gesture[e_slots]
            known = gestures > 0
            # One predict_proba per distinct gesture, over every session
            # currently in that context.  Gestures without a trained
            # classifier score 0.0 (safe) — never a stale carry-over.
            new_scores = np.zeros(e_slots.size)
            for gesture_number in np.unique(gestures[known]):
                backend = self._error_backend_or_none(
                    Gesture(int(gesture_number))
                )
                if backend is None:
                    continue
                mask = gestures == gesture_number
                new_scores[mask] = backend.predict_proba(
                    e_windows[mask]
                ).reshape(-1)
            self._current_score[e_slots[known]] = new_scores[known]

        now = time.perf_counter()
        gesture = self._current_gesture[slots]
        score = self._current_score[slots]
        flag = score >= self.monitor.threshold
        frame = self._frames_done[slots]
        self._frames_done[slots] = frame + 1
        latency_us = (now - fed_at) * 1e6
        batch = EventBatch(
            self._slot_ids[slots].tolist(), frame, gesture, score, flag, latency_us
        )
        recording = self._recording[slots]
        if recording.any():
            sessions = self._sessions
            for session_id, g, p in zip(
                compress(batch.session_ids, recording.tolist()),
                gesture[recording].tolist(),
                score[recording].tolist(),
            ):
                session = sessions[session_id]
                session.gestures.append(g)
                session.scores.append(p)
        self.telemetry.histogram("alert_latency_us").observe_many(latency_us)
        if not self._n_pending and self._pending.shape[1] > PENDING_RING_DEPTH:
            self._alloc_pending(PENDING_RING_DEPTH)
        n_events = slots.size
        self.stats.record(1000.0 * (time.perf_counter() - start), n_events)
        self.telemetry.counter("events_emitted").inc(n_events)
        n_flagged = int(np.count_nonzero(flag))
        if n_flagged:
            self.telemetry.counter("events_flagged").inc(n_flagged)
        if self.event_store is not None:
            self.event_store.append_batch(batch)
        return batch

    def drain(self, collect: bool = True) -> list[SessionEvent]:
        """Tick until no session has pending frames.

        With ``collect=False`` events are discarded as they are produced
        (throughput benchmarking); per-session timelines still accumulate.
        """
        events: list[SessionEvent] = []
        while self._n_pending:
            tick_events = self.tick()
            if collect:
                events.extend(tick_events)
        return events

    # ------------------------------------------------------------------
    # Slots and the pending ring
    # ------------------------------------------------------------------
    def _bind_slot(self, session: _Session) -> None:
        """Register a session on its (already reserved) slot."""
        slot = session.slot
        self._sessions[session.id] = session
        self._slot_ids[slot] = session.id
        self._recording[slot] = session.record_timeline
        self._frames_done[slot] = 0
        self._head[slot] = 0
        self._count[slot] = 0
        self._order = None

    def _release(self, session: _Session) -> None:
        """Forget a session and free its slot; its pending frames go."""
        slot = session.slot
        del self._sessions[session.id]
        self._free_slots.append(slot)
        self._slot_ids[slot] = None
        self._n_pending -= int(self._count[slot])
        self._count[slot] = 0
        self._order = None

    def _enqueue(self, slot: int, frames: np.ndarray, fed_at: float) -> None:
        """Copy ``frames`` onto the tail of one slot's pending ring."""
        assert self._pending is not None and self._pending_ts is not None
        n = frames.shape[0]
        count = int(self._count[slot])
        depth = self._pending.shape[1]
        if count + n > depth:
            while depth < count + n:
                depth *= 2
            self._alloc_pending(depth)
        tail = (int(self._head[slot]) + count) % depth
        first = min(n, depth - tail)
        self._pending[slot, tail : tail + first] = frames[:first]
        self._pending_ts[slot, tail : tail + first] = fed_at
        if first < n:  # wrap around to the start of the slot's ring
            self._pending[slot, : n - first] = frames[first:]
            self._pending_ts[slot, : n - first] = fed_at
        self._count[slot] = count + n
        self._n_pending += n

    def _alloc_pending(self, depth: int) -> None:
        """(Re)allocate the pending ring at ``depth`` frames per slot.

        Live frames move over unrolled, so every head restarts at 0.
        """
        assert self._n_features is not None
        pending = np.empty((self.max_sessions, depth, self._n_features))
        stamps = np.empty((self.max_sessions, depth))
        if self._pending is not None:
            assert self._pending_ts is not None
            old_depth = self._pending.shape[1]
            for slot in np.flatnonzero(self._count).tolist():
                head, count = int(self._head[slot]), int(self._count[slot])
                rows = (head + np.arange(count)) % old_depth
                pending[slot, :count] = self._pending[slot, rows]
                stamps[slot, :count] = self._pending_ts[slot, rows]
        self._pending, self._pending_ts = pending, stamps
        self._head[:] = 0

    # ------------------------------------------------------------------
    def _get(self, session_id: str) -> _Session:
        session = self._sessions.get(session_id)
        if session is None:
            raise DatasetError(f"no open session {session_id!r}")
        return session

    def _expected_n_features(self) -> int | None:
        """Kinematics width the monitor was trained for, when derivable.

        The error-stage scalers see full-width frames; the gesture scaler
        only does when no feature subset is configured.  An untrained
        monitor constrains nothing.
        """
        classifier = self.monitor.gesture_classifier
        if (
            classifier.config.feature_indices is None
            and classifier.scaler.mean_ is not None
        ):
            return int(classifier.scaler.mean_.shape[0])
        for clf in self.monitor.library.classifiers.values():
            if clf.scaler.mean_ is not None:
                return int(clf.scaler.mean_.shape[0])
        return None

    def _ensure_buffers(self, n_features: int) -> None:
        if self._gesture_batch is not None:
            return
        expected = self._expected_n_features()
        if expected is not None and n_features != expected:
            raise ShapeError(
                f"monitor was trained for {expected} kinematics features, "
                f"got frames with {n_features}"
            )
        self._n_features = int(n_features)
        classifier_cfg = self.monitor.gesture_classifier.config
        feature_idx = classifier_cfg.feature_indices
        g_features = n_features if feature_idx is None else len(feature_idx)
        self._gesture_batch = StreamingWindowBatch(
            classifier_cfg.window, self.max_sessions, g_features
        )
        self._error_batch = StreamingWindowBatch(
            self.monitor.config.error_window, self.max_sessions, n_features
        )
        self._alloc_pending(PENDING_RING_DEPTH)
        if feature_idx is not None:
            self._feature_idx = np.asarray(feature_idx, dtype=np.intp)
            self._g_frames_scratch = np.empty((self.max_sessions, g_features))
