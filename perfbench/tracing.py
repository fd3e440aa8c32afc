"""Traced runs: spans around calls into each layer's public functions.

The benchmark measures the program from outside.  :func:`install`
wraps public methods of the layers named after ``repro.serving`` and
``repro.nn`` modules — the service tick and feed, window pushes,
inference backends, the event-store append path, the bulk scorer and
the sharded router — with timers that record a :class:`Span` each.
Spans nest through a per-thread stack, so a layer's self time is its
span minus the spans of the calls it made.  Nothing in the program is
edited; :func:`install` returns a function that restores the originals.

Spans stay in memory (a :class:`Recorder`) and are written out when a
run ends.  Frame-level spans are keyed by ``(session, frame)``: feeds
record which frame indices entered the service and when, ticks record
which ``(session, frame)`` events they emitted.
"""

from __future__ import annotations

import bisect
import itertools
import threading
import time

import numpy as np

from perfbench.common import Span, percentile_inf, self_times

#: End-to-end metrics in the JSON result of every untraced run, each
#: gated by its bound in ``BENCHMARK.json``: (name, unit).
E2E = (
    ("alert_p50_ms", "ms"),
    ("frames_per_s", "frames/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)

#: Per-layer metrics in the JSON result of every traced run: (name,
#: unit).  ``alert_p99_ms`` leads: every run prints it beside the
#: end-to-end metrics, but its run-to-run spread on a shared machine is
#: wider than any bound can hold, so it is reported here, ungated.  A
#: layer a workload does not exercise reads 0 on that workload.
PER_LAYER = (
    ("alert_p99_ms", "ms"),
    ("loadgen.late_ms.p99", "ms"),
    ("loadgen.frames_sent", "count"),
    ("remote.client.feed_us.p50", "us"),
    ("remote.client.feed_us.p99", "us"),
    ("remote.client.events_received", "count"),
    ("remote.gateway.inbound_ms.p50", "ms"),
    ("remote.gateway.inbound_ms.p99", "ms"),
    ("remote.gateway.outbound_ms.p50", "ms"),
    ("remote.gateway.outbound_ms.p99", "ms"),
    ("remote.gateway.events_sent", "count"),
    ("remote.gateway.overflow_disconnects", "count"),
    ("remote.gateway.failed_sessions", "count"),
    ("service.queue_wait_ms.p50", "ms"),
    ("service.queue_wait_ms.p99", "ms"),
    ("service.tick_ms.p50", "ms"),
    ("service.tick_ms.p99", "ms"),
    ("service.ticks", "count"),
    ("service.batch_mean", "frames"),
    ("service.busy_share", "ratio"),
    ("service.nonmodel_share", "ratio"),
    ("backends.predict_ms.total", "ms"),
    ("backends.predict.calls", "count"),
    ("backends.predict_proba_ms.total", "ms"),
    ("backends.predict_proba.calls", "count"),
    ("backends.rows_per_call", "rows"),
    ("backends.forward_bulk_ms.total", "ms"),
    ("backends.score_bulk_ms.total", "ms"),
    ("windows.push_ms.total", "ms"),
    ("windows.push.calls", "count"),
    ("bulk.windows_scored", "count"),
    ("bulk.score_ms.total", "ms"),
    ("bulk.model_share", "ratio"),
    ("eventstore.append_us.total", "us"),
    ("eventstore.flushed", "count"),
    ("eventstore.dropped", "count"),
    ("eventstore.bytes_written", "bytes"),
    ("eventstore.segments", "count"),
    ("sharded.feed_us.p50", "us"),
    ("sharded.tick_ms.p50", "ms"),
    ("sharded.tick_ms.p99", "ms"),
    ("sharded.worker_tick_ms.p50", "ms"),
    ("sharded.worker_busy_share", "ratio"),
    ("sharded.router_share", "ratio"),
    ("telemetry.alert_latency_us.p50", "us"),
    ("trace.overhead.alert_p50_ms", "ms"),
    ("trace.overhead.alert_p99_ms", "ms"),
    ("trace.overhead.frames_per_s", "frames/s"),
)

BACKEND_CALLS = ("predict", "predict_proba", "forward_bulk", "score_bulk")


class Recorder:
    """In-memory span store for one traced phase."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (session, first frame index, n frames, feed entered) per feed.
        self.feeds: list[tuple[str, int, int, float]] = []
        #: tick span id -> (session, frame) of every event it emitted.
        self.tick_keys: dict[int, list[tuple[str, int]]] = {}
        self._ids = itertools.count()
        self._local = threading.local()
        self._feed_index: dict[str, tuple[list[int], list[float]]] | None = None

    # -- recording -----------------------------------------------------
    def _stack(self) -> list[tuple[int, str]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, prefix: str) -> bool:
        """True when the innermost open span on this thread is ``prefix*``."""
        stack = self._stack()
        return bool(stack) and stack[-1][1].startswith(prefix)

    def call(self, name: str, fn, args, kwargs, rows: int = 0, after=None):
        """Run ``fn`` inside a span; ``after(span_id, result)`` sees the
        result before the span is stored."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1][0] if stack else None
        stack.append((span_id, name))
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        if after is not None:
            after(span_id, result)
        self.spans.append(Span(span_id, name, start, end, parent, rows))
        return result

    def note_feed(self, session_id: str, first: int, n_frames: int, entered: float) -> None:
        self.feeds.append((session_id, first, n_frames, entered))

    # -- export --------------------------------------------------------
    def export(self) -> dict:
        """JSON-ready copy (crosses the gateway process's stdout)."""
        return {
            "spans": [list(s) for s in self.spans],
            "feeds": [list(f) for f in self.feeds],
            "tick_keys": {
                str(k): [[s, f] for s, f in v] for k, v in self.tick_keys.items()
            },
        }

    @classmethod
    def from_export(cls, data: dict) -> "Recorder":
        rec = cls()
        rec.spans = [Span(*s) for s in data["spans"]]
        rec.feeds = [tuple(f) for f in data["feeds"]]
        rec.tick_keys = {
            int(k): [(s, int(f)) for s, f in v] for k, v in data["tick_keys"].items()
        }
        return rec

    # -- queries -------------------------------------------------------
    def named(self, name: str) -> list[Span]:
        return [s for s in self.spans if s.name == name]

    def feed_time(self, session_id: str, frame: int) -> float:
        """When the feed that carried ``(session, frame)`` entered."""
        if self._feed_index is None:
            index: dict[str, tuple[list[int], list[float]]] = {}
            for sid, base, _, entered in sorted(self.feeds, key=lambda f: f[1]):
                bases, times = index.setdefault(sid, ([], []))
                bases.append(base)
                times.append(entered)
            self._feed_index = index
        bases, times = self._feed_index[session_id]
        return times[bisect.bisect_right(bases, frame) - 1]

    def busy_ticks(self) -> list[Span]:
        """Service ticks that advanced at least one session."""
        return [s for s in self.named("service.tick") if self.tick_keys.get(s.id)]


def install(rec: Recorder):
    """Wrap each layer's public entry points; returns the undo function."""
    from repro.kinematics.windows import StreamingWindowBatch
    from repro.nn.backends.compiled import CompiledBackend
    from repro.nn.backends.reference import ReferenceBackend
    from repro.serving.bulk import BulkScorer
    from repro.serving.eventstore import EventStoreWriter
    from repro.serving.service import MonitorService
    from repro.serving.sharded import ShardedMonitorService

    originals: list[tuple[type, str, object]] = []

    def patch(cls, attr, make):
        orig = cls.__dict__[attr]
        originals.append((cls, attr, orig))
        setattr(cls, attr, make(orig))

    def spanned(name, rows=None):
        def make(orig):
            def wrapper(*args, **kwargs):
                n = rows(args) if rows is not None else 0
                return rec.call(name, orig, args, kwargs, n)

            return wrapper

        return make

    def backend(name):
        # Only the outermost backend call is a span: a bulk entry point
        # that falls through to predict_proba is one call, not two.
        def make(orig):
            def wrapper(self, windows, *args, **kwargs):
                if rec.inside("backends."):
                    return orig(self, windows, *args, **kwargs)
                return rec.call(
                    name, orig, (self, windows, *args), kwargs, len(windows)
                )

            return wrapper

        return make

    def service_feed(orig):
        def wrapper(self, session_id, frames):
            entered = time.perf_counter()
            # The next frame index of the session: frames ticked + queued.
            first = self.frames_done(session_id) + self.pending_frames(session_id)
            n = 1 if np.ndim(frames) == 1 else len(frames)
            rec.note_feed(session_id, first, n, entered)
            return rec.call("service.feed", orig, (self, session_id, frames), {})

        return wrapper

    def service_tick(orig):
        def keep_keys(span_id, events):
            if events:
                rec.tick_keys[span_id] = [(e.session_id, e.frame_index) for e in events]

        def wrapper(self):
            return rec.call("service.tick", orig, (self,), {}, after=keep_keys)

        return wrapper

    patch(MonitorService, "feed", service_feed)
    patch(MonitorService, "tick", service_tick)
    patch(StreamingWindowBatch, "push", spanned("windows.push", lambda a: len(a[1])))
    for cls in (CompiledBackend, ReferenceBackend):
        for call in BACKEND_CALLS:
            if call in cls.__dict__:
                patch(cls, call, backend(f"backends.{call}"))
    patch(EventStoreWriter, "append", spanned("eventstore.append", lambda a: 1))
    patch(
        EventStoreWriter,
        "append_batch",
        spanned("eventstore.append", lambda a: len(a[1])),
    )
    patch(BulkScorer, "score", spanned("bulk.score"))
    patch(ShardedMonitorService, "feed", spanned("sharded.feed"))
    patch(ShardedMonitorService, "tick", spanned("sharded.tick"))

    def restore() -> None:
        for cls, attr, orig in reversed(originals):
            setattr(cls, attr, orig)

    return restore


# ----------------------------------------------------------------------
# Per-layer metrics derived from spans
# ----------------------------------------------------------------------
def _total_ms(spans) -> float:
    return 1e3 * sum(s.duration for s in spans)


def _ms(values) -> np.ndarray:
    return 1e3 * np.asarray(values, dtype=float)


def queue_waits_ms(rec: Recorder) -> np.ndarray:
    """Per frame: feed entered -> start of the tick that consumed it."""
    waits = [
        tick.start - rec.feed_time(sid, frame)
        for tick in rec.busy_ticks()
        for sid, frame in rec.tick_keys[tick.id]
    ]
    return _ms(waits)


def span_metrics(rec: Recorder, wall_s: float) -> dict[str, float]:
    """Every per-layer metric the spans alone determine."""
    out: dict[str, float] = {}
    ticks = rec.busy_ticks()
    tick_ids = {t.id for t in ticks}
    backends = [s for s in rec.spans if s.name.startswith("backends.")]
    if ticks:
        tick_ms = _ms([t.duration for t in ticks])
        waits = queue_waits_ms(rec)
        tick_total = float(tick_ms.sum())
        model_ms = _total_ms([s for s in backends if s.parent in tick_ids])
        n_events = sum(len(rec.tick_keys[t.id]) for t in ticks)
        out.update(
            {
                "service.queue_wait_ms.p50": percentile_inf(waits, 50),
                "service.queue_wait_ms.p99": percentile_inf(waits, 99),
                "service.tick_ms.p50": percentile_inf(tick_ms, 50),
                "service.tick_ms.p99": percentile_inf(tick_ms, 99),
                "service.ticks": len(ticks),
                "service.batch_mean": n_events / len(ticks),
                "service.busy_share": tick_total / (1e3 * wall_s),
                "service.nonmodel_share": (tick_total - model_ms) / tick_total,
            }
        )
    for call in BACKEND_CALLS:
        spans = [s for s in backends if s.name == f"backends.{call}"]
        out[f"backends.{call}_ms.total"] = _total_ms(spans)
        if call in ("predict", "predict_proba"):
            out[f"backends.{call}.calls"] = len(spans)
    if backends:
        out["backends.rows_per_call"] = sum(s.rows for s in backends) / len(backends)
    pushes = rec.named("windows.push")
    out["windows.push_ms.total"] = _total_ms(pushes)
    out["windows.push.calls"] = len(pushes)
    scores = rec.named("bulk.score")
    if scores:
        score_ids = {s.id for s in scores}
        under = [s for s in backends if s.parent in score_ids]
        score_ms = _total_ms(scores)
        out["bulk.windows_scored"] = sum(s.rows for s in under)
        out["bulk.score_ms.total"] = score_ms
        out["bulk.model_share"] = _total_ms(under) / score_ms
    out["eventstore.append_us.total"] = 1e3 * _total_ms(rec.named("eventstore.append"))
    feeds = rec.named("sharded.feed")
    if feeds:
        out["sharded.feed_us.p50"] = 1e3 * percentile_inf(_ms([s.duration for s in feeds]), 50)
    router = rec.named("sharded.tick")
    if router:
        router_ms = _ms([s.duration for s in router])
        out["sharded.tick_ms.p50"] = percentile_inf(router_ms, 50)
        out["sharded.tick_ms.p99"] = percentile_inf(router_ms, 99)
    return out


def self_time_lines(rec: Recorder) -> list[str]:
    """Report lines: self time per layer (span name), in ms."""
    lines = ["self time per layer (traced phase):"]
    for name, seconds in sorted(self_times(rec.spans).items()):
        lines.append(f"  {name:<24} {1e3 * seconds:12.1f} ms")
    return lines


def eventstore_metrics(before: dict, after: dict) -> dict[str, float]:
    """Writer counters over a phase, from two ``EventStoreWriter.stats()``."""
    return {
        "eventstore.flushed": after["flushed"] - before["flushed"],
        "eventstore.dropped": after["dropped"] - before["dropped"],
        "eventstore.bytes_written": after["bytes_written"] - before["bytes_written"],
        "eventstore.segments": after["segments"] - before["segments"],
    }


def telemetry_p50_us(before: dict, after: dict) -> float:
    """p50 of the program's own feed -> emit latency histogram over a
    phase: the bucket counts of two telemetry snapshots, subtracted,
    read the way ``Histogram.percentile`` reads them (bucket bound)."""
    hist = after.get("histograms", {}).get("alert_latency_us")
    if not hist:
        return 0.0
    base = before.get("histograms", {}).get("alert_latency_us")
    buckets = np.asarray(hist["buckets"], dtype=np.int64)
    if base:
        buckets = buckets - np.asarray(base["buckets"], dtype=np.int64)
    count = int(buckets.sum())
    if count == 0:
        return 0.0
    rank = max(1, int(round(0.5 * count)))
    i = int(np.searchsorted(np.cumsum(buckets), rank))
    bounds = hist["bounds"]
    return float(bounds[min(i, len(bounds) - 1)])
