"""Sliding-window extraction over kinematics time series (paper Eq. 2).

Both stages of the monitoring pipeline consume fixed-length windows of
consecutive kinematics frames.  :func:`sliding_windows` builds them in
batch for training; :class:`StreamingWindowBatch` maintains them
incrementally for many concurrent online streams at once (the serving
hot path), and :class:`StreamingWindow` is its single-stream wrapper.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..config import WindowConfig
from ..errors import ConfigurationError, ShapeError


@dataclass
class WindowSlotState:
    """Portable snapshot of one stream slot's ring state.

    Produced by :meth:`StreamingWindowBatch.export_slot` and consumed by
    :meth:`StreamingWindowBatch.import_slot` — the unit of session
    migration between serving engines.  ``buffer`` holds the slot's raw
    ring rows (ring order, *not* time order: position depends only on
    ``seen % window``, which travels with the state), so importing into
    any batch built from the same :class:`~repro.config.WindowConfig`
    reproduces the slot bit for bit.
    """

    buffer: np.ndarray  # (window, n_features) raw ring rows
    seen: int
    since_emit: int


def sliding_windows(
    frames: np.ndarray, config: WindowConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Extract overlapping windows from a frame sequence.

    Parameters
    ----------
    frames:
        Array of shape ``(n_frames, n_features)``.
    config:
        Window length and stride.

    Returns
    -------
    windows, end_indices
        ``windows`` has shape ``(n_windows, window, n_features)``;
        ``end_indices[i]`` is the index of the *last* frame in window ``i``
        (the frame whose label the window predicts, so the online monitor
        incurs no look-ahead).
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2:
        raise ShapeError(f"frames must be 2-D (n_frames, n_features), got {frames.shape}")
    n = config.n_windows(frames.shape[0])
    if n == 0:
        empty = np.empty((0, config.window, frames.shape[1]))
        return empty, np.empty(0, dtype=int)
    starts = np.arange(n) * config.stride
    # Gather via advanced indexing; data volumes here are modest so a copy
    # is preferable to the aliasing pitfalls of stride tricks.
    idx = starts[:, None] + np.arange(config.window)[None, :]
    windows = frames[idx]
    end_indices = starts + config.window - 1
    return windows, end_indices


def sliding_windows_view(
    frames: np.ndarray, config: WindowConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Zero-copy variant of :func:`sliding_windows`.

    Returns the same ``(windows, end_indices)`` pair, but ``windows`` is
    a **read-only strided view** over ``frames``
    (:func:`np.lib.stride_tricks.sliding_window_view`): materialising
    every window of an hour-long procedure costs O(1) memory instead of
    ``window``× the trajectory size.  This is the bulk scoring engine's
    input path (:mod:`repro.serving.bulk`) and feeds the batched
    per-window model passes of the offline pipeline.

    The view aliases ``frames``: rows overlap (each frame appears in up
    to ``window`` windows), so it is marked non-writeable — writing
    through it would corrupt neighbouring windows.  Consumers that need
    ownership must copy (standardisation and advanced-indexing gathers
    already do).  When ``frames`` is not float64 (or not an ndarray) a
    single float conversion copy is made first; the view then aliases
    that conversion, still with no per-window duplication.
    """
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 2:
        raise ShapeError(f"frames must be 2-D (n_frames, n_features), got {frames.shape}")
    n = config.n_windows(frames.shape[0])
    if n == 0:
        empty = np.empty((0, config.window, frames.shape[1]))
        return empty, np.empty(0, dtype=int)
    # (n_frames - window + 1, window, n_features) view, one window per
    # start frame; striding the first axis applies the configured hop.
    view = np.lib.stride_tricks.sliding_window_view(
        frames, config.window, axis=0
    ).transpose(0, 2, 1)[:: config.stride][:n]
    view.flags.writeable = False
    end_indices = np.arange(n) * config.stride + config.window - 1
    return view, end_indices


def window_labels(
    labels: np.ndarray, config: WindowConfig, reduce: str = "last"
) -> np.ndarray:
    """Per-window labels aligned with :func:`sliding_windows`.

    ``reduce`` selects how the per-frame labels within a window collapse to
    one label:

    - ``"last"`` — label of the final frame (causal; default, matches the
      online monitor which predicts the current frame).
    - ``"majority"`` — most frequent label in the window.  Ties break to
      the **lowest** label value; this is a contract, not an accident of
      implementation, so that e.g. a half-safe/half-unsafe binary window
      resolves to 0 (safe) and re-runs are reproducible across numpy
      versions.
    - ``"any"`` — for binary 0/1 labels, 1 if any frame is 1 (the paper
      marks a whole gesture unsafe if any of its samples is erroneous).
    """
    labels = np.asarray(labels)
    if labels.ndim != 1:
        raise ShapeError(f"labels must be 1-D, got shape {labels.shape}")
    n = config.n_windows(labels.shape[0])
    if n == 0:
        return np.empty(0, dtype=labels.dtype)
    starts = np.arange(n) * config.stride
    if reduce == "last":
        return labels[starts + config.window - 1]
    idx = starts[:, None] + np.arange(config.window)[None, :]
    gathered = labels[idx]
    if reduce == "any":
        return (gathered != 0).any(axis=1).astype(labels.dtype)
    if reduce == "majority":
        # Vectorized per-row mode in O(n_windows * window) memory: sort
        # each window, run-length encode, take each row's longest run.
        # Runs are value-ascending and argmax returns the first maximum,
        # which yields the lowest-label-wins contract.
        ordered = np.sort(gathered, axis=1)
        window = ordered.shape[1]
        starts = np.concatenate(
            [np.ones((n, 1), dtype=bool), ordered[:, 1:] != ordered[:, :-1]],
            axis=1,
        )
        run_ids = np.cumsum(starts, axis=1) - 1  # at most `window` runs/row
        run_lengths = np.zeros((n, window), dtype=np.int64)
        np.add.at(run_lengths, (np.arange(n)[:, None], run_ids), 1)
        best_run = np.argmax(run_lengths, axis=1)
        first_of_best = np.argmax(run_ids == best_run[:, None], axis=1)
        return ordered[np.arange(n), first_of_best]
    raise ShapeError(f"unknown reduce mode {reduce!r}")


class StreamingWindowBatch:
    """Ring-buffered sliding windows over many concurrent streams.

    The serving hot path: a preallocated ``(n_streams, window,
    n_features)`` buffer absorbs one new frame per pushed stream per call
    and reports — with a vectorized readiness mask, no per-stream Python
    state — which streams completed a window on this push.  Stream slots
    advance independently, so sessions that joined at different times can
    share one batch.

    Emission semantics per stream are identical to pushing that stream's
    frames one-by-one through a :class:`StreamingWindow`: the first window
    emits once ``window`` frames arrived, subsequent windows every
    ``stride`` frames after that.
    """

    def __init__(self, config: WindowConfig, n_streams: int, n_features: int) -> None:
        if n_streams < 1:
            raise ConfigurationError("n_streams must be >= 1")
        if n_features < 1:
            raise ConfigurationError("n_features must be >= 1")
        self._config = config
        self._n_streams = int(n_streams)
        self._n_features = int(n_features)
        self._buffer = np.zeros((n_streams, config.window, n_features))
        self._seen = np.zeros(n_streams, dtype=np.int64)
        self._since_emit = np.zeros(n_streams, dtype=np.int64)
        self._window_offsets = np.arange(config.window)
        # Duplicate-id check scratch: each pushed id writes its position
        # into its mark; a duplicate overwrites an earlier one.
        self._marks = np.empty(n_streams, dtype=np.int64)
        self._positions = np.arange(n_streams)

    @property
    def config(self) -> WindowConfig:
        """The window configuration this batch was built with."""
        return self._config

    @property
    def n_streams(self) -> int:
        """Number of stream slots in the buffer."""
        return self._n_streams

    @property
    def n_features(self) -> int:
        """Feature width of each frame."""
        return self._n_features

    @property
    def frames_seen(self) -> np.ndarray:
        """Per-stream count of frames pushed since the last reset (copy)."""
        return self._seen.copy()

    def push(
        self, frames: np.ndarray, stream_ids: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Advance a set of streams by one frame each.

        Parameters
        ----------
        frames:
            Array of shape ``(n_pushed, n_features)``: one new frame per
            pushed stream, aligned with ``stream_ids``.
        stream_ids:
            Slot indices receiving a frame; defaults to all streams.  Must
            not contain duplicates (each stream advances by exactly one
            frame per call).

        Returns
        -------
        ready, windows
            ``ready`` is a boolean mask aligned with ``stream_ids`` marking
            streams that completed a window on this push; ``windows`` has
            shape ``(ready.sum(), window, n_features)`` with rows in
            ``stream_ids`` order, each window's frames in time order.
        """
        frames = np.asarray(frames, dtype=float)
        ids = self._check_ids(stream_ids)
        if frames.shape != (ids.size, self._n_features):
            raise ShapeError(
                f"frames must have shape ({ids.size}, {self._n_features}), "
                f"got {frames.shape}"
            )
        window = self._config.window
        if ids.size == 0:
            return np.zeros(0, dtype=bool), np.empty((0, window, self._n_features))

        self._buffer[ids, self._seen[ids] % window] = frames
        self._seen[ids] += 1
        seen = self._seen[ids]
        first = seen == window
        follow = seen > window
        self._since_emit[ids[follow]] += 1
        ready = first | (follow & (self._since_emit[ids] >= self._config.stride))
        self._since_emit[ids[ready]] = 0

        ready_ids = ids[ready]
        if ready_ids.size == 0:
            return ready, np.empty((0, window, self._n_features))
        # The oldest frame of stream s lives at ring slot seen[s] % window,
        # so rotating the slot axis restores time order.
        order = (self._seen[ready_ids, None] + self._window_offsets) % window
        return ready, self._buffer[ready_ids[:, None], order]

    def reset(self, stream_ids: np.ndarray | None = None) -> None:
        """Restore fresh-stream state for some (default: all) streams."""
        ids = self._check_ids(stream_ids)
        self._seen[ids] = 0
        self._since_emit[ids] = 0

    def export_slot(self, stream_id: int) -> WindowSlotState:
        """Snapshot one slot's complete ring state (a deep copy).

        Together with :meth:`import_slot` this is the migration
        primitive: emission semantics depend only on ``(seen,
        since_emit)`` and window contents only on the ring rows plus
        ``seen % window``, so the triple reproduces the slot exactly in
        any batch with the same window configuration.
        """
        slot = self._check_ids(np.array([stream_id]))[0]
        return WindowSlotState(
            buffer=self._buffer[slot].copy(),
            seen=int(self._seen[slot]),
            since_emit=int(self._since_emit[slot]),
        )

    def import_slot(self, stream_id: int, state: WindowSlotState) -> None:
        """Restore a slot from an :meth:`export_slot` snapshot.

        The receiving batch must have the same window length and feature
        width the state was exported from (:class:`ShapeError`
        otherwise); the target slot's previous state is overwritten.
        """
        slot = self._check_ids(np.array([stream_id]))[0]
        buffer = np.asarray(state.buffer, dtype=float)
        expected = (self._config.window, self._n_features)
        if buffer.shape != expected:
            raise ShapeError(
                f"slot state buffer must have shape {expected}, "
                f"got {buffer.shape}"
            )
        if state.seen < 0 or state.since_emit < 0:
            raise ShapeError(
                "slot state counters must be non-negative, got "
                f"seen={state.seen}, since_emit={state.since_emit}"
            )
        self._buffer[slot] = buffer
        self._seen[slot] = int(state.seen)
        self._since_emit[slot] = int(state.since_emit)

    def _check_ids(self, stream_ids: np.ndarray | None) -> np.ndarray:
        """Validate stream indices: 1-D, in range, no duplicates."""
        if stream_ids is None:
            return np.arange(self._n_streams)
        ids = np.asarray(stream_ids, dtype=int)
        if ids.ndim != 1:
            raise ShapeError(f"stream_ids must be 1-D, got shape {ids.shape}")
        if ids.size and (ids.min() < 0 or ids.max() >= self._n_streams):
            raise ShapeError(
                f"stream_ids must lie in [0, {self._n_streams}), got "
                f"[{ids.min()}, {ids.max()}]"
            )
        if ids.size > self._n_streams:
            raise ShapeError("stream_ids must not contain duplicates")
        positions = self._positions[: ids.size]
        self._marks[ids] = positions
        if (self._marks[ids] != positions).any():
            raise ShapeError("stream_ids must not contain duplicates")
        return ids


class StreamingWindow:
    """Incrementally maintained sliding window for one online stream.

    A thin single-stream wrapper over :class:`StreamingWindowBatch`: push
    frames one at a time with :meth:`push`; once ``window`` frames have
    accumulated every subsequent push (at multiples of ``stride``) yields
    a ready window.

    Example
    -------
    >>> sw = StreamingWindow(WindowConfig(window=3, stride=1), n_features=2)
    >>> for t in range(5):
    ...     ready = sw.push(np.full(2, float(t)))
    """

    def __init__(self, config: WindowConfig, n_features: int) -> None:
        self._batch = StreamingWindowBatch(config, 1, n_features)

    @property
    def config(self) -> WindowConfig:
        """The window configuration this stream was built with."""
        return self._batch.config

    @property
    def frames_seen(self) -> int:
        """Total number of frames pushed so far."""
        return int(self._batch.frames_seen[0])

    def push(self, frame: np.ndarray) -> np.ndarray | None:
        """Append a frame; return the current window when one is due.

        Returns ``None`` while the buffer is warming up or between strides.
        """
        frame = np.asarray(frame, dtype=float)
        if frame.shape != (self._batch.n_features,):
            raise ShapeError(
                f"frame must have shape ({self._batch.n_features},), got {frame.shape}"
            )
        ready, windows = self._batch.push(frame[None, :])
        return windows[0] if ready[0] else None

    def reset(self) -> None:
        """Clear the buffer (e.g. at a trajectory boundary)."""
        self._batch.reset()

    def iter_windows(self, frames: np.ndarray) -> Iterator[tuple[int, np.ndarray]]:
        """Yield ``(end_frame_index, window)`` pairs for a whole sequence.

        Convenience wrapper equivalent to pushing every row of ``frames``.
        """
        frames = np.asarray(frames, dtype=float)
        for t in range(frames.shape[0]):
            ready = self.push(frames[t])
            if ready is not None:
                yield t, ready
