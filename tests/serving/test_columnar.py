"""Tests for the columnar tick path.

- :class:`EventBatch` is the tick's native result; ``tick()`` is its
  ``SessionEvent`` view;
- the event store's batch encoder writes the bytes of per-event
  appends (mixed-length and non-ASCII ids, mixed flags, rotation
  straddles, partial acceptance at ``ring_capacity``);
- ``Histogram.observe_many`` buckets like repeated ``observe``;
- the per-slot pending ring survives growth, wraparound and a
  mid-backlog migration bit-identically, and ``feed`` copies;
- non-finite kinematics fail closed, in-process and across a fleet.
"""

import numpy as np
import pytest

from repro.errors import DatasetError
from repro.serving import (
    EventBatch,
    EventStoreReader,
    EventStoreWriter,
    Histogram,
    MonitorService,
    ShardedMonitorService,
    make_random_walk_trajectory,
    make_synthetic_monitor,
)
from repro.serving.eventstore import _encode_batch, _encode_event

N_FEATURES = 10

COLUMNS = ("frame", "gesture", "score", "flag", "latency_us")

#: Session ids of mixed utf-8 byte length, including empty and non-ASCII.
IDS = ["", "a", "proc-0", "théâtre-7", "手術室-12", "op-" + "x" * 40, "🩺"]


@pytest.fixture(scope="module")
def monitor():
    return make_synthetic_monitor(n_features=N_FEATURES, seed=0)


def random_batch(rng, n):
    return EventBatch(
        [IDS[i] for i in rng.integers(0, len(IDS), size=n)],
        rng.integers(0, 10**6, size=n),
        rng.integers(0, 16, size=n),
        rng.random(n),
        rng.random(n) < 0.5,
        rng.random(n) * 1e4,
    )


def stream_of(monitor, frames):
    service = MonitorService(monitor, max_sessions=1)
    sid = service.open_session()
    service.feed(sid, frames)
    return service.drain()


def key(event):
    return (event.session_id, event.frame_index, event.gesture, event.score, event.flag)


def segment_bytes(root):
    return [p.read_bytes() for p in EventStoreReader(root).segments()]


class TestEventBatch:
    def test_tick_is_the_batch_as_events(self, monitor):
        a = MonitorService(monitor, max_sessions=4)
        b = MonitorService(monitor, max_sessions=4)
        for service in (a, b):
            for k in range(3):
                sid = service.open_session(f"s{k}")
                service.feed(sid, make_random_walk_trajectory(
                    25 + 5 * k, n_features=N_FEATURES, seed=k
                ).frames)
        while a.has_pending:
            events = a.tick()
            batch = b.tick_batch()
            assert len(batch) == len(events)
            assert batch.events() == events
        assert b.tick_batch().events() == []

    def test_row_selection(self):
        batch = random_batch(np.random.default_rng(0), 6)
        mask = np.array([True, False, True, False, False, True])
        assert batch[mask].events() == [batch.events()[i] for i in (0, 2, 5)]
        assert batch[:2].events() == batch.events()[:2]


class TestBatchEncoder:
    @pytest.mark.parametrize("seed", range(5))
    def test_bytes_equal_per_record_encoding(self, seed):
        rng = np.random.default_rng(seed)
        batch = random_batch(rng, int(rng.integers(1, 200)))
        first_seq = int(rng.integers(0, 10**9))
        shard = int(rng.integers(-1, 8))
        blob, lengths = _encode_batch(first_seq, batch, shard)
        records = [
            _encode_event(first_seq + i, event, shard)
            for i, event in enumerate(batch.events())
        ]
        assert blob == b"".join(records)
        assert lengths.tolist() == [len(r) for r in records]

    def test_ascii_only_ids(self):
        batch = random_batch(np.random.default_rng(8), 50)
        ascii_ids = [f"op-{i}" * (i % 3) for i in range(50)]
        batch = EventBatch(ascii_ids, *[getattr(batch, c) for c in COLUMNS])
        blob, _ = _encode_batch(0, batch, -1)
        assert blob == b"".join(
            _encode_event(i, event, -1) for i, event in enumerate(batch.events())
        )

    def test_per_row_shards(self):
        batch = random_batch(np.random.default_rng(7), 5)
        shards = np.array([0, -1, 3, 3, 1], dtype=np.int32)
        blob, _ = _encode_batch(11, batch, shards)
        assert blob == b"".join(
            _encode_event(11 + i, event, int(s))
            for i, (event, s) in enumerate(zip(batch.events(), shards))
        )

    def test_replay_round_trips(self, tmp_path):
        batch = random_batch(np.random.default_rng(3), 64)
        with EventStoreWriter(tmp_path) as writer:
            assert writer.append_batch(batch, shard=2) == 64
        records = list(EventStoreReader(tmp_path).iter_records())
        assert [r.event for r in records] == batch.events()
        assert [key(r.event) for r in records] == [key(e) for e in batch.events()]
        assert [r.seq for r in records] == list(range(64))
        assert {r.shard for r in records} == {2}

    def test_batch_straddling_rotation_matches_per_event_appends(self, tmp_path):
        rng = np.random.default_rng(4)
        batches = [random_batch(rng, int(n)) for n in rng.integers(1, 40, size=12)]
        for mode in ("batch", "event"):
            with EventStoreWriter(tmp_path / mode, segment_bytes=900) as writer:
                for batch in batches:
                    if mode == "batch":
                        writer.append_batch(batch, shard=1)
                    else:
                        for event in batch.events():
                            writer.append(event, shard=1)
                    if rng.random() < 0.3:
                        writer.flush()
        by_batch = segment_bytes(tmp_path / "batch")
        assert len(by_batch) > 3
        assert by_batch == segment_bytes(tmp_path / "event")
        replayed = list(EventStoreReader(tmp_path / "batch").replay())
        assert replayed == [e for b in batches for e in b.events()]

    def test_partial_accept_at_ring_capacity(self, tmp_path):
        batch = random_batch(np.random.default_rng(5), 10)
        writer = EventStoreWriter(tmp_path, ring_capacity=7)
        assert writer.append_batch(batch, shard=np.arange(10, dtype=np.int32)) == 7
        stats = writer.stats()
        assert (stats["appended"], stats["dropped"]) == (7, 3)
        writer.close()
        assert writer.stats()["flushed"] == 7
        assert writer.append_batch(batch) == 0  # closed: every row a drop
        assert writer.stats()["dropped"] == 13
        records = list(EventStoreReader(tmp_path).iter_records())
        assert [r.event for r in records] == batch.events()[:7]
        assert [r.shard for r in records] == list(range(7))

    def test_event_lists_with_errors_still_accepted(self, tmp_path):
        events = random_batch(np.random.default_rng(6), 3).events()
        events[1] = type(events[1])(
            events[1].session_id, 5, 0, 0.0, True, error="shard 0 worker died"
        )
        with EventStoreWriter(tmp_path) as writer:
            assert writer.append_batch(events, shard=0) == 3
        assert list(EventStoreReader(tmp_path).replay()) == events


class TestObserveMany:
    def test_same_buckets_and_count_as_repeated_observe(self):
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [rng.lognormal(6, 3, size=500), [1.0, 2.0, 4.0, 2.0**26, 2.0**27, 1e12, 0.5]]
        )
        one, many = Histogram("a"), Histogram("b")
        for v in values.tolist():
            one.observe(v)
        many.observe_many(values[:100])
        many.observe_many(values[100:])
        many.observe_many(np.empty(0))
        assert many.buckets == one.buckets
        assert many.count == one.count
        assert many.total == pytest.approx(one.total)
        assert many.percentile(50) == one.percentile(50)


class TestPendingRing:
    def test_growth_and_wraparound_with_ticks_between(self, monitor):
        trajectory = make_random_walk_trajectory(400, n_features=N_FEATURES, seed=9)
        reference = stream_of(monitor, trajectory.frames)
        service = MonitorService(monitor, max_sessions=3)
        sid = service.open_session("p")
        other = service.open_session("q")
        rng = np.random.default_rng(1)
        events, fed = [], 0
        while fed < 400:
            n = min(int(rng.choice([1, 3, 17, 40, 70])), 400 - fed)
            service.feed(sid, trajectory.frames[fed : fed + n])
            service.feed(other, trajectory.frames[:2])
            fed += n
            for _ in range(int(rng.integers(0, 30))):
                events.extend(e for e in service.tick() if e.session_id == sid)
            assert service.pending_frames(sid) == fed - len(events)
        events.extend(e for e in service.drain() if e.session_id == sid)
        assert [key(e)[1:] for e in events] == [key(e)[1:] for e in reference]
        assert service.frames_done(sid) == 400

    def test_export_import_mid_backlog_is_bit_identical(self, monitor):
        trajectory = make_random_walk_trajectory(300, n_features=N_FEATURES, seed=2)
        reference = stream_of(monitor, trajectory.frames)
        source = MonitorService(monitor, max_sessions=2)
        sid = source.open_session("m")
        source.feed(sid, trajectory.frames[:50])
        source.feed(sid, trajectory.frames[50:180])
        events = [source.tick()[0] for _ in range(70)]
        state = source.export_session(sid, remove=True)
        assert state.pending_frames == 110
        assert not source.has_pending
        target = MonitorService(monitor, max_sessions=4)
        target.open_session("placeholder")
        target.import_session(state)
        assert target.pending_frames(sid) == 110
        target.feed(sid, trajectory.frames[180:])
        events.extend(target.drain())
        assert [key(e)[1:] for e in events] == [key(e)[1:] for e in reference]

    def test_feed_copies_its_input(self, monitor):
        trajectory = make_random_walk_trajectory(60, n_features=N_FEATURES, seed=3)
        reference = stream_of(monitor, trajectory.frames)
        service = MonitorService(monitor, max_sessions=1)
        sid = service.open_session()
        frames = trajectory.frames.copy()
        service.feed(sid, frames)
        frames[:] = 1e3  # mutate after feed: must not reach the engine
        assert [key(e)[1:] for e in service.drain()] == [key(e)[1:] for e in reference]

    def test_close_discards_pending_frames(self, monitor):
        service = MonitorService(monitor, max_sessions=2)
        a = service.open_session()
        service.feed(a, np.zeros((5, N_FEATURES)))
        service.close_session(a)
        assert not service.has_pending
        assert service.tick() == []


class TestFailClosedInput:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_engine_rejects_non_finite_frames(self, monitor, bad):
        service = MonitorService(monitor, max_sessions=2)
        sid = service.open_session()
        frames = np.zeros((4, N_FEATURES))
        frames[2, 3] = bad
        with pytest.raises(DatasetError, match="non-finite"):
            service.feed(sid, frames)
        with pytest.raises(DatasetError, match="non-finite"):
            service.feed(sid, frames[2])
        assert service.pending_frames(sid) == 0
        assert service.tick() == []

    def test_fleet_fails_the_session_safe(self, monitor):
        trajectory = make_random_walk_trajectory(40, n_features=N_FEATURES, seed=5)
        fleet = ShardedMonitorService(monitor, n_shards=2, max_sessions_per_shard=4)
        try:
            good = [fleet.open_session(f"ok-{i}") for i in range(3)]
            bad = fleet.open_session("nan-feed")
            for sid in good:
                fleet.feed(sid, trajectory.frames)
            frames = trajectory.frames.copy()
            frames[7, 0] = np.nan
            fleet.feed(bad, frames)
            events = fleet.drain()
        finally:
            fleet.close()
        terminal = [e for e in events if e.session_id == bad]
        assert len(terminal) == 1
        assert terminal[0].flag is True
        assert "non-finite" in terminal[0].error
        assert bad in fleet.failed_sessions
        for sid in good:
            assert [e.frame_index for e in events if e.session_id == sid] == list(range(40))

