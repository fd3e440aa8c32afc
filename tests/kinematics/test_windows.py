"""Tests for repro.kinematics.windows."""

import numpy as np
import pytest

from repro.config import WindowConfig
from repro.errors import ConfigurationError, ShapeError
from repro.kinematics.windows import (
    StreamingWindow,
    StreamingWindowBatch,
    sliding_windows,
    sliding_windows_view,
    window_labels,
)


def ramp_frames(n: int, d: int = 2) -> np.ndarray:
    return np.arange(n * d, dtype=float).reshape(n, d)


class TestSlidingWindows:
    def test_shapes_and_ends(self):
        windows, ends = sliding_windows(ramp_frames(10), WindowConfig(4, 2))
        assert windows.shape == (4, 4, 2)
        assert ends.tolist() == [3, 5, 7, 9]

    def test_content(self):
        frames = ramp_frames(6)
        windows, _ = sliding_windows(frames, WindowConfig(3, 1))
        assert np.array_equal(windows[0], frames[0:3])
        assert np.array_equal(windows[-1], frames[3:6])

    def test_too_short_sequence(self):
        windows, ends = sliding_windows(ramp_frames(3), WindowConfig(5, 1))
        assert windows.shape == (0, 5, 2)
        assert ends.size == 0

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            sliding_windows(np.arange(10.0), WindowConfig(3, 1))


class TestSlidingWindowsView:
    @pytest.mark.parametrize("window,stride", [(3, 1), (4, 2), (5, 3), (2, 5)])
    def test_equals_copying_variant(self, window, stride):
        frames = ramp_frames(17, d=3)
        config = WindowConfig(window, stride)
        copied, ends_copied = sliding_windows(frames, config)
        viewed, ends_viewed = sliding_windows_view(frames, config)
        np.testing.assert_array_equal(viewed, copied)
        np.testing.assert_array_equal(ends_viewed, ends_copied)

    def test_is_zero_copy(self):
        frames = ramp_frames(50)
        viewed, _ = sliding_windows_view(frames, WindowConfig(5, 1))
        assert np.shares_memory(viewed, frames)
        # A strided view owns no window-duplicated data: its base buffer
        # is exactly the frames buffer, never n_windows * window rows.
        assert viewed.base is not None
        copied, _ = sliding_windows(frames, WindowConfig(5, 1))
        assert not np.shares_memory(copied, frames)

    def test_no_window_sized_allocation(self):
        import tracemalloc

        frames = ramp_frames(5000, d=8)  # 320 kB; windowed copy ~1.6 MB
        config = WindowConfig(5, 1)
        sliding_windows_view(frames, config)  # warm-up
        tracemalloc.start()
        windows, _ = sliding_windows_view(frames, config)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        # The view allocates O(n_windows) index arrays but never the
        # (n_windows, window, d) window data itself.
        assert peak < windows.nbytes // 10

    def test_view_is_read_only(self):
        viewed, _ = sliding_windows_view(ramp_frames(10), WindowConfig(3, 1))
        assert not viewed.flags.writeable
        with pytest.raises(ValueError):
            viewed[0, 0, 0] = 1.0

    def test_non_float_input_converts_once(self):
        frames = np.arange(20).reshape(10, 2)  # int64
        viewed, ends = sliding_windows_view(frames, WindowConfig(3, 1))
        copied, _ = sliding_windows(frames, WindowConfig(3, 1))
        assert viewed.dtype == float
        assert not np.shares_memory(viewed, frames)  # the conversion copy
        np.testing.assert_array_equal(viewed, copied)

    def test_too_short_sequence(self):
        viewed, ends = sliding_windows_view(ramp_frames(3), WindowConfig(5, 1))
        assert viewed.shape == (0, 5, 2)
        assert ends.size == 0

    def test_rejects_1d(self):
        with pytest.raises(ShapeError):
            sliding_windows_view(np.arange(10.0), WindowConfig(3, 1))


class TestWindowLabels:
    def test_last_reduce(self):
        labels = np.array([1, 1, 2, 2, 3, 3])
        out = window_labels(labels, WindowConfig(3, 1), reduce="last")
        assert out.tolist() == [2, 2, 3, 3]

    def test_any_reduce(self):
        labels = np.array([0, 1, 0, 0, 0])
        out = window_labels(labels, WindowConfig(3, 1), reduce="any")
        assert out.tolist() == [1, 1, 0]

    def test_majority_reduce(self):
        labels = np.array([5, 5, 7, 7, 7])
        out = window_labels(labels, WindowConfig(5, 1), reduce="majority")
        assert out.tolist() == [7]

    def test_majority_tie_breaks_to_lowest_label(self):
        # Documented contract: exact count ties resolve to the lowest
        # label, so a half-safe binary window reads safe.
        labels = np.array([1, 2, 1, 2])
        out = window_labels(labels, WindowConfig(2, 1), reduce="majority")
        assert out.tolist() == [1, 1, 1]
        out = window_labels(np.array([0, 1, 1, 0]), WindowConfig(4, 1), "majority")
        assert out.tolist() == [0]
        out = window_labels(np.array([9, 3, 9, 3]), WindowConfig(4, 2), "majority")
        assert out.tolist() == [3]

    def test_majority_with_stride_and_dtype(self):
        labels = np.array([4, 4, 4, 6, 6, 6, 6], dtype=np.int32)
        out = window_labels(labels, WindowConfig(3, 2), reduce="majority")
        assert out.tolist() == [4, 6, 6]
        assert out.dtype == labels.dtype

    def test_alignment_with_windows(self):
        frames = ramp_frames(20)
        labels = np.arange(20)
        cfg = WindowConfig(4, 3)
        _, ends = sliding_windows(frames, cfg)
        out = window_labels(labels, cfg, reduce="last")
        assert np.array_equal(out, labels[ends])

    def test_unknown_reduce(self):
        with pytest.raises(ShapeError):
            window_labels(np.zeros(5, dtype=int), WindowConfig(2, 1), reduce="mean")


class TestStreamingWindow:
    def test_matches_batch_extraction(self):
        frames = ramp_frames(25, 3)
        cfg = WindowConfig(5, 2)
        batch_windows, batch_ends = sliding_windows(frames, cfg)
        stream = StreamingWindow(cfg, n_features=3)
        seen = list(stream.iter_windows(frames))
        assert [t for t, _ in seen] == batch_ends.tolist()
        for (_, win), batch in zip(seen, batch_windows):
            assert np.array_equal(win, batch)

    def test_warmup_returns_none(self):
        stream = StreamingWindow(WindowConfig(4, 1), n_features=1)
        for t in range(3):
            assert stream.push(np.array([float(t)])) is None
        assert stream.push(np.array([3.0])) is not None

    def test_reset(self):
        stream = StreamingWindow(WindowConfig(2, 1), n_features=1)
        stream.push(np.array([0.0]))
        stream.reset()
        assert stream.frames_seen == 0
        assert stream.push(np.array([1.0])) is None

    def test_rejects_wrong_width(self):
        stream = StreamingWindow(WindowConfig(2, 1), n_features=2)
        with pytest.raises(ShapeError):
            stream.push(np.zeros(3))


class TestStreamingWindowBatch:
    def test_lockstep_matches_batch_extraction(self):
        cfg = WindowConfig(4, 2)
        rng = np.random.default_rng(0)
        sequences = [rng.random((15, 3)) for _ in range(3)]
        batch = StreamingWindowBatch(cfg, n_streams=3, n_features=3)
        emitted = {i: [] for i in range(3)}
        for t in range(15):
            frames = np.stack([seq[t] for seq in sequences])
            ready, windows = batch.push(frames)
            for row, i in enumerate(np.flatnonzero(ready)):
                emitted[i].append((t, windows[row]))
        for i, seq in enumerate(sequences):
            expected_windows, expected_ends = sliding_windows(seq, cfg)
            assert [t for t, _ in emitted[i]] == expected_ends.tolist()
            for (_, win), expected in zip(emitted[i], expected_windows):
                assert np.array_equal(win, expected)

    def test_staggered_subsets(self):
        # Stream 1 joins three frames late; readiness masks stay aligned
        # with the pushed subset and each stream keeps its own phase.
        cfg = WindowConfig(3, 1)
        batch = StreamingWindowBatch(cfg, n_streams=2, n_features=1)
        for t in range(3):
            ready, _ = batch.push(np.array([[float(t)]]), np.array([0]))
        assert ready[0]  # stream 0 warmed up
        ready, windows = batch.push(np.array([[3.0], [100.0]]), np.array([0, 1]))
        assert ready.tolist() == [True, False]
        assert np.array_equal(windows[0].ravel(), [1.0, 2.0, 3.0])
        assert batch.frames_seen.tolist() == [4, 1]

    def test_stride_longer_than_window(self):
        cfg = WindowConfig(2, 5)
        batch = StreamingWindowBatch(cfg, n_streams=1, n_features=1)
        emitted = []
        for t in range(12):
            ready, windows = batch.push(np.array([[float(t)]]))
            if ready[0]:
                emitted.append((t, windows[0].ravel().tolist()))
        _, ends = sliding_windows(np.arange(12.0)[:, None], cfg)
        assert [t for t, _ in emitted] == ends.tolist()
        assert emitted[0] == (1, [0.0, 1.0])
        assert emitted[1] == (6, [5.0, 6.0])

    def test_reset_subset(self):
        cfg = WindowConfig(2, 1)
        batch = StreamingWindowBatch(cfg, n_streams=2, n_features=1)
        batch.push(np.zeros((2, 1)))
        batch.push(np.ones((2, 1)))
        batch.reset(np.array([0]))
        assert batch.frames_seen.tolist() == [0, 2]
        ready, _ = batch.push(np.full((2, 1), 2.0))
        assert ready.tolist() == [False, True]

    def test_empty_push(self):
        batch = StreamingWindowBatch(WindowConfig(2, 1), n_streams=2, n_features=3)
        ready, windows = batch.push(np.empty((0, 3)), np.empty(0, dtype=int))
        assert ready.shape == (0,)
        assert windows.shape == (0, 2, 3)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            StreamingWindowBatch(WindowConfig(2, 1), n_streams=0, n_features=1)
        batch = StreamingWindowBatch(WindowConfig(2, 1), n_streams=2, n_features=3)
        with pytest.raises(ShapeError):
            batch.push(np.zeros((2, 4)))
        with pytest.raises(ShapeError):
            batch.push(np.zeros((1, 3)), np.array([5]))
        with pytest.raises(ShapeError):
            batch.push(np.zeros((1, 3)), np.array([[0]]))
        with pytest.raises(ShapeError):
            batch.push(np.zeros((2, 3)), np.array([0, 0]))  # duplicate stream
        with pytest.raises(ShapeError):
            batch.push(np.zeros((3, 3)), np.array([1, 0, 1]))  # more ids than streams
        ready, _ = batch.push(np.zeros((2, 3)), np.array([1, 0]))  # rejects left no trace
        assert ready.tolist() == [False, False]
        # reset() enforces the same stream_ids contract as push().
        with pytest.raises(ShapeError):
            batch.reset(np.array([-1]))
        with pytest.raises(ShapeError):
            batch.reset(np.array([5]))

    def test_windows_are_copies(self):
        batch = StreamingWindowBatch(WindowConfig(2, 1), n_streams=1, n_features=1)
        batch.push(np.array([[1.0]]))
        _, windows = batch.push(np.array([[2.0]]))
        windows[0, 0, 0] = 99.0
        _, again = batch.push(np.array([[3.0]]))
        assert np.array_equal(again[0].ravel(), [2.0, 3.0])
