"""Closed-loop drain workloads: ``backlog`` and ``fleet``.

Both feed 256 sessions of the toy monitor a whole procedure each up
front, then tick until every frame is scored, with the event-store tee
on; one such feed-and-drain is a *round*.  ``backlog`` drains one
in-process :class:`MonitorService`; ``fleet`` drains a K=2
:class:`ShardedMonitorService` over the shm data plane.

A frame's alert latency here is the time from its session's ``feed``
call to the tick that returned its event: the wait a full backlog
imposes.  Rounds are independent, so ``alert_*`` and ``frames_per_s``
are medians over the rounds of a phase.

Durations are reported at reference machine speed
(:func:`~perfbench.common.scale_factor`), per round.  Both workloads
scale by the CPU share the hypervisor granted during the round.
``backlog`` also scales by the interpreter kernel: its single-process
tick is the interpreter and small-matrix work that kernel times.
``fleet`` does not: its pace hangs on three processes sharing the
cores, which one process's kernel does not track (per round the kernel
and the frame rate were uncorrelated, and scaling by it more than
doubled the run-to-run spread of the rate).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from multiprocessing import resource_tracker
from pathlib import Path

import numpy as np

from repro.serving import EventStoreWriter, MonitorService, ShardedMonitorService

from perfbench import monitors, tracing
from perfbench.common import (
    Outcome,
    check_session,
    peak_rss_mb,
    percentile_inf,
    provenance,
    cpu_ticks,
    reset_peak_rss,
    scale_factor,
)

SESSIONS = 256
FRAMES = 100  # frames per procedure: one round feeds 25.6k frames
WARMUP_FRAMES = 20
N_SETUPS = 5
N_SHARDS = 2
#: Calibration kernel per workload (see the module docstring).
KERNEL = {"backlog": "interp", "fleet": None}


def _build(kind: str, store: EventStoreWriter):
    monitor = monitors.build_monitor("toy")
    if kind == "backlog":
        return MonitorService(
            monitor, max_sessions=SESSIONS, backend="compiled", event_store=store
        )
    return ShardedMonitorService(
        monitor,
        n_shards=N_SHARDS,
        max_sessions_per_shard=SESSIONS,
        backend="compiled",
        event_store=store,
    )


def _close(engine) -> None:
    if isinstance(engine, ShardedMonitorService):
        engine.close()


def _round(engine, tag: str, frames: list[np.ndarray]):
    """One feed-everything-then-drain round; returns the timed part."""
    sids = [
        engine.open_session(f"{tag}-{i}", record_timeline=False)
        for i in range(len(frames))
    ]
    fed_at = np.empty(len(frames))
    start = time.perf_counter()
    for i, (sid, f) in enumerate(zip(sids, frames)):
        fed_at[i] = time.perf_counter()
        engine.feed(sid, f)
    ticks = []
    while engine.has_pending:
        events = engine.tick()
        ticks.append((time.perf_counter(), events))
    wall = time.perf_counter() - start
    for sid in sids:
        engine.close_session(sid)
    return sids, fed_at, ticks, wall


def _check_round(sids, fed_at, ticks, refs):
    """Check every event of a round; per-frame latency in ms (inf when
    the frame has no correct event) and the failure count."""
    pos = {sid: i for i, sid in enumerate(sids)}
    cols = [([], [], [], [], [], []) for _ in sids]
    for t, events in ticks:
        for e in events:
            c = cols[pos[e.session_id]]
            c[0].append(e.frame_index)
            c[1].append(e.gesture)
            c[2].append(e.score)
            c[3].append(e.flag)
            c[4].append(e.error is not None)
            c[5].append(t)
    latencies, failed = [], 0
    for i, (fi, g, s, f, err, t) in enumerate(cols):
        ref_g, ref_s, ref_f = refs[i]
        checked = check_session(ref_g, ref_s, ref_f, ref_g.size, fi, g, s, f, err)
        failed += checked.failed
        recv = np.full(ref_g.size, np.inf)
        fi = np.asarray(fi, dtype=np.int64)
        keep = (fi >= 0) & (fi < ref_g.size)
        recv[fi[keep]] = np.asarray(t)[keep]
        lat = np.where(checked.ok, (recv - fed_at[i]) * 1e3, np.inf)
        latencies.append(lat)
    return np.concatenate(latencies), failed


@dataclass
class Phase:
    """Per-round results; ``speed`` is each round's :func:`scale_factor`."""

    rates: list[float] = field(default_factory=list)
    p50s: list[float] = field(default_factory=list)
    p99s: list[float] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)
    frames: int = 0
    failed: int = 0
    wall_s: float = 0.0

    def e2e(self, scaled: bool) -> dict[str, tuple[float, int]]:
        """Medians over rounds, at reference speed unless ``scaled``
        is false (then as the wall clock read them)."""
        f = np.asarray(self.speed) if scaled else np.ones(len(self.speed))
        return {
            "alert_p50_ms": (float(np.median(np.asarray(self.p50s) * f)), self.frames),
            "alert_p99_ms": (float(np.median(np.asarray(self.p99s) * f)), self.frames),
            "frames_per_s": (float(np.median(np.asarray(self.rates) / f)), self.frames),
        }


def _phase(engine, store, procs, refs, seconds: float, tag: str, kernel) -> Phase:
    phase = Phase()
    n_procs = len(procs)
    r = 0
    while phase.wall_s < seconds:
        order = [(i + r) % n_procs for i in range(SESSIONS)]
        before = cpu_ticks()
        sids, fed_at, ticks, wall = _round(
            engine, f"{tag}{r}", [procs[p].frames for p in order]
        )
        after = cpu_ticks()
        lat, failed = _check_round(sids, fed_at, ticks, [refs[p] for p in order])
        store.flush()  # quiesce the tee's flusher before calibrating
        phase.speed.append(scale_factor(kernel, before, after))
        n_frames = lat.size
        phase.rates.append((n_frames - failed) / wall)
        phase.p50s.append(percentile_inf(lat, 50))
        phase.p99s.append(percentile_inf(lat, 99))
        phase.frames += n_frames
        phase.failed += failed
        phase.wall_s += wall
        r += 1
    return phase


def _children_rss_mb() -> float:
    """Peak RSS of this process's live child processes (shard workers)."""
    total = 0.0
    for task in Path("/proc/self/task").iterdir():
        for pid in (task / "children").read_text().split():
            try:
                total += peak_rss_mb(pid)
            except OSError:
                continue  # exited between listing and reading
    return total


def run(kind: str, seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    procs = monitors.procedures(seed, SESSIONS, FRAMES)
    refs = monitors.stream_references(monitors.build_monitor("toy"), procs)
    warm = [p.frames[:WARMUP_FRAMES] for p in procs]

    kernel = KERNEL[kind]
    reset_peak_rss()
    setups = []
    engine = store = None
    for k in range(N_SETUPS):
        if engine is not None:
            _close(engine)
            store.close()
        before = cpu_ticks()
        start = time.perf_counter()
        store = EventStoreWriter(workdir / f"store-{k}")
        engine = _build(kind, store)
        _round(engine, f"warm{k}-", warm)
        wall = time.perf_counter() - start
        setups.append((wall, scale_factor(kernel, before, cpu_ticks())))

    try:
        untraced = _phase(engine, store, procs, refs, seconds, "a", kernel)
        out = Outcome(
            provenance=provenance(kind, seed, monitors.ARCHITECTURES["toy"]),
            e2e=untraced.e2e(scaled=True),
            attempted=untraced.frames,
            failed=untraced.failed,
            raw={k: v for k, (v, _) in untraced.e2e(scaled=False).items()},
            speed=float(np.median(untraced.speed)),
        )
        if traced:
            sharded = isinstance(engine, ShardedMonitorService)
            tel_before = engine.telemetry_snapshot() if sharded else engine.telemetry.snapshot()
            store.flush()
            store_before = store.stats()
            worker_before = (
                {i: s.n_ticks for i, s in engine.shard_stats().items()} if sharded else {}
            )
            rec = tracing.Recorder()
            restore = tracing.install(rec)
            try:
                tphase = _phase(engine, store, procs, refs, seconds, "b", kernel)
            finally:
                restore()
            out.attempted += tphase.frames
            out.failed += tphase.failed
            out.e2e_traced = tphase.e2e(scaled=True)
            out.layers = tracing.span_metrics(rec, tphase.wall_s)
            store.flush()
            out.layers.update(tracing.eventstore_metrics(store_before, store.stats()))
            tel_after = engine.telemetry_snapshot() if sharded else engine.telemetry.snapshot()
            out.layers["telemetry.alert_latency_us.p50"] = tracing.telemetry_p50_us(
                tel_before, tel_after
            )
            out.layers["loadgen.frames_sent"] = tphase.frames
            if sharded:
                out.layers.update(_worker_metrics(engine, worker_before, rec, tphase.wall_s))
            out.lines += tracing.self_time_lines(rec)
            out.spans = rec.export()
        rss = peak_rss_mb() + _children_rss_mb()
        out.e2e["setup_s"] = (float(np.median([t * f for t, f in setups])), len(setups))
        out.raw.update(setup_s=float(np.median([t for t, _ in setups])), peak_rss_mb=rss)
        out.e2e["peak_rss_mb"] = (rss, 1 + (N_SHARDS if kind == "fleet" else 0))
        return out
    finally:
        _close(engine)
        store.close()
        # The fleet's shared memory started multiprocessing's resource
        # tracker process; stop it and wait for it, so that no process
        # outlives the run.
        resource_tracker._resource_tracker._stop()


def _worker_metrics(engine, before: dict[int, int], rec, wall_s: float) -> dict:
    """Shard-side tick cost over the traced phase, from ``shard_stats()``."""
    per_shard = []
    for index, stats in engine.shard_stats().items():
        n_new = stats.n_ticks - before.get(index, 0)
        per_shard.append(stats.tick_ms[-n_new:] if n_new > 0 else np.zeros(0))
    samples = np.concatenate(per_shard) if per_shard else np.zeros(0)
    router_ms = np.asarray([s.duration for s in rec.named("sharded.tick")]) * 1e3
    # Every router tick advances each shard with pending frames once, so
    # the k-th tick of every shard belongs to the same router round.
    rounds = min((len(s) for s in per_shard), default=0)
    slowest = np.max([s[:rounds] for s in per_shard], axis=0) if rounds else np.zeros(0)
    return {
        "sharded.worker_tick_ms.p50": percentile_inf(samples, 50) if samples.size else 0.0,
        "sharded.worker_busy_share": float(samples.sum()) / (1e3 * wall_s * N_SHARDS),
        "sharded.router_share": (
            1.0 - float(slowest.sum()) / float(router_ms.sum()) if router_ms.size else 0.0
        ),
    }

