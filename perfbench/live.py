"""Live workload: an open loop over real TCP into a K=1 gateway process.

Four sessions on two connections each send one frame per FRAME message
at 30 Hz, their phases staggered evenly across the 33 ms frame
interval, to a :class:`MonitorGateway` serving the paper-scale monitor
(compiled backend) in its own process and teeing alerts into an event
store.  On a box with two or more cores the generator and the gateway
each get a core of their own, and the gateway runs one BLAS thread, so
the load generator never competes with the system under test.  The
schedule never waits for the gateway: a frame's alert latency runs from
when it was *due* to when its EVENT reaches the client, so a stalled
gateway or a late generator counts.  The whole generator is one
process and two connections; it runs on one asyncio thread (plus the
thread asyncio uses to wait for the gateway process).

Latencies are scaled per window by the CPU share the hypervisor granted
the gateway's core meanwhile (:func:`~perfbench.common.cpu_share`), so
time stolen by other tenants of the machine does not read as gateway
latency.  No calibration kernel applies: the pinned gateway's tick is a
memory-bound batch-1 GEMV whose latency the kernel does not track.

A traced run measures once untraced, then tells the gateway to trace
and measures again.  Per frame, the spans split the alert latency into
four hops that add up to it by construction:

    inbound   frame due              -> MonitorService.feed entered
    queue     feed entered           -> start of the tick that scored it
    tick      tick start             -> tick returned
    outbound  tick returned          -> EVENT received by the client
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from repro.errors import ReproError, WorkerError
from repro.serving import AsyncRemoteMonitorClient

from perfbench import monitors, tracing
from perfbench.common import (
    Outcome,
    check_session,
    lateness_ms,
    open_loop_schedule,
    cpu_share,
    cpu_ticks,
    percentile_inf,
    provenance,
)

SESSIONS = 4
CONNECTIONS = 2
RATE_HZ = 30.0
WARMUP_FRAMES = 30
N_SETUPS = 3
WINDOWS = 10  # a phase is 10 back-to-back windows
DRAIN_TIMEOUT_S = 10.0
GATEWAY = Path(__file__).resolve().parent / "gateway_proc.py"
#: The gateway's environment: one BLAS thread, so its ticks stay on its
#: own core.
GATEWAY_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def placement() -> tuple[set[int], set[int]] | None:
    """``(generator cpus, gateway cpus)``: one core each, or ``None``
    (no pinning) when fewer than two cores are visible."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, {cpus[1]}


class Gateway:
    """The gateway subprocess and its one-line JSON command channel."""

    def __init__(self, proc, port: int) -> None:
        self.proc = proc
        self.port = port
        self.blas_threads: int | None = None

    @classmethod
    async def start(cls, store: Path, cpus: set[int] | None) -> "Gateway":
        pin = ["--cpus", ",".join(map(str, sorted(cpus)))] if cpus else []
        proc = await asyncio.create_subprocess_exec(
            sys.executable, str(GATEWAY), "--store", str(store),
            "--sessions", str(SESSIONS), *pin,
            env=dict(os.environ, **GATEWAY_ENV),
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            limit=1 << 30,  # the spans reply is one long line
        )
        gateway = cls(proc, 0)
        try:
            hello = await gateway._read()
            gateway.port = hello["port"]
            gateway.blas_threads = hello["blas_threads"]
        except BaseException:
            await gateway.kill()
            raise
        return gateway

    async def _read(self) -> dict:
        line = await asyncio.wait_for(self.proc.stdout.readline(), 120.0)
        if not line:
            raise RuntimeError(f"gateway process exited ({await self.proc.wait()})")
        return json.loads(line)

    async def command(self, command: str) -> dict:
        self.proc.stdin.write(f"{command}\n".encode())
        await self.proc.stdin.drain()
        return await self._read()

    async def stop(self) -> dict:
        try:
            reply = await self.command("stop")
            await asyncio.wait_for(self.proc.wait(), 30.0)
            return reply
        finally:
            await self.kill()

    async def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            await self.proc.wait()


class Fleet:
    """Two client connections carrying the sessions, and the log
    of every event received: per session ``(t, frame, gesture, score,
    flag, error)`` in arrival order."""

    def __init__(self, gateway: Gateway) -> None:
        self.gateway = gateway
        self.clients: list[AsyncRemoteMonitorClient] = []
        self.sids: list[str] = []
        self.log: list[list[tuple]] = [[] for _ in range(SESSIONS)]
        self.stray_errors = 0
        self._consumers: list[asyncio.Task] = []

    async def open(self) -> None:
        for _ in range(CONNECTIONS):
            self.clients.append(
                await AsyncRemoteMonitorClient.connect("127.0.0.1", self.gateway.port)
            )
        for i in range(SESSIONS):
            self.sids.append(await self.client(i).open_session(f"live-{i}"))
        pos = {sid: i for i, sid in enumerate(self.sids)}
        self._consumers = [
            asyncio.create_task(self._consume(c, pos)) for c in self.clients
        ]

    def client(self, i: int) -> AsyncRemoteMonitorClient:
        return self.clients[i % CONNECTIONS]

    async def _consume(self, client, pos) -> None:
        while True:
            try:
                e = await client.next_event()
            except WorkerError:
                return  # connection closed
            except ReproError:
                self.stray_errors += 1  # an asynchronous gateway ERROR
                continue
            self.log[pos[e.session_id]].append(
                (time.perf_counter(), e.frame_index, e.gesture, e.score, e.flag,
                 e.error is not None)
            )

    async def wait_for(self, n_events: int, timeout_s: float) -> None:
        deadline = time.perf_counter() + timeout_s
        while any(len(log) < n_events for log in self.log):
            if time.perf_counter() > deadline:
                return
            await asyncio.sleep(0.005)

    async def close(self) -> dict:
        try:
            for i, sid in enumerate(self.sids):
                await self.client(i).close_session(sid)
        finally:
            for task in self._consumers:
                task.cancel()
            await asyncio.gather(*self._consumers, return_exceptions=True)
            for client in self.clients:
                await client.aclose()
        return await self.gateway.stop()


async def _setup(workdir: Path, k: int, frames, cpus) -> tuple[Fleet, float]:
    """Gateway process start, monitor build, plan compile, connections,
    sessions and warm-up frames: everything before the first timed frame."""
    start = time.perf_counter()
    fleet = Fleet(await Gateway.start(workdir / f"store-{k}", cpus))
    try:
        await fleet.open()
        for f in range(WARMUP_FRAMES):
            for i, sid in enumerate(fleet.sids):
                await fleet.client(i).feed(sid, frames[i][f])
        await fleet.wait_for(WARMUP_FRAMES, 60.0)
    except BaseException:
        await fleet.gateway.kill()
        raise
    return fleet, time.perf_counter() - start


async def _window(fleet: Fleet, frames, first: int, n: int, cpus) -> dict:
    """Send frames ``first .. first+n-1`` of every session on schedule and
    wait for their events; ``share`` is the CPU share the hypervisor
    granted the gateway's ``cpus`` meanwhile."""
    before = cpu_ticks(cpus)
    t0 = time.perf_counter() + 0.02
    due = open_loop_schedule(SESSIONS, n, RATE_HZ, t0)
    sent = np.empty_like(due)
    done = np.empty_like(due)
    for k in range(n):
        for i, sid in enumerate(fleet.sids):
            delay = due[k, i] - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            sent[k, i] = time.perf_counter()
            await fleet.client(i).feed(sid, frames[i][first + k])
            done[k, i] = time.perf_counter()
    await fleet.wait_for(first + n, DRAIN_TIMEOUT_S)
    share = cpu_share(before, cpu_ticks(cpus))
    return {"first": first, "n": n, "t0": t0, "due": due, "sent": sent, "done": done,
            "share": share}


async def _phase(fleet: Fleet, frames, first: int, n: int, cpus) -> list[dict]:
    """``n`` frames per session as ``WINDOWS`` back-to-back windows."""
    per = n // WINDOWS
    return [await _window(fleet, frames, first + w * per, per, cpus) for w in range(WINDOWS)]


def _check(fleet: Fleet, refs, n_sent: int):
    """Per session: ok mask and receipt time per frame; total failures."""
    failed = fleet.stray_errors
    oks, recvs = [], []
    for i, log in enumerate(fleet.log):
        cols = list(zip(*log)) if log else [[]] * 6
        t, fi, g, s, f, err = (np.asarray(c) for c in cols)
        ref_g, ref_s, ref_f = (r[:n_sent] for r in refs[i])
        checked = check_session(ref_g, ref_s, ref_f, n_sent, fi, g, s, f, err)
        failed += checked.failed
        recv = np.full(n_sent, np.inf)
        fi = fi.astype(np.int64)
        keep = (fi >= 0) & (fi < n_sent)
        recv[fi[keep]] = t[keep]
        oks.append(checked.ok)
        recvs.append(recv)
    return np.asarray(oks), np.asarray(recvs), failed


def _latency_ms(window: dict, oks, recvs) -> np.ndarray:
    """``(n, sessions)`` alert latency from due time; inf when the frame
    has no correct event."""
    sl = slice(window["first"], window["first"] + window["n"])
    recv = recvs[:, sl].T
    return np.where(oks[:, sl].T, (recv - window["due"]) * 1e3, np.inf)


def _e2e(windows: list[dict], oks, recvs, scaled: bool = True) -> dict[str, tuple[float, int]]:
    """Alert latency, each window's scaled by the CPU share its gateway
    got (as the wall clock read it when ``scaled`` is false).

    ``alert_p50_ms`` is the median over every frame of the phase.
    ``alert_p99_ms`` is the median over windows of each window's p99, so
    one stall of the shared machine moves one window, not the run.  The
    frame rate is the achieved part of the offered load.
    """
    lats, p99s, n_ok, span = [], [], 0, 0.0
    for w in windows:
        lat = _latency_ms(w, oks, recvs).ravel() * (w["share"] if scaled else 1.0)
        lats.append(lat)
        p99s.append(percentile_inf(lat, 99))
        got = recvs[:, w["first"]: w["first"] + w["n"]]
        end = max(float(np.max(got[np.isfinite(got)], initial=0.0)), float(w["due"][-1, -1]))
        span += end - w["t0"]
        n_ok += int(np.count_nonzero(np.isfinite(lat)))
    pooled = np.concatenate(lats)
    return {
        "alert_p50_ms": (percentile_inf(pooled, 50), pooled.size),
        "alert_p99_ms": (float(np.median(p99s)), pooled.size),
        "frames_per_s": (n_ok / span, pooled.size),
    }


async def _measure(seed: int, seconds: float, traced: bool, workdir: Path, cpus):
    n = WINDOWS * max(1, math.ceil(seconds * RATE_HZ / WINDOWS))
    n_total = WARMUP_FRAMES + n * (2 if traced else 1)
    trajectories = monitors.procedures(seed, SESSIONS, n_total)
    frames = [t.frames for t in trajectories]

    setups = []
    fleet = None
    for k in range(N_SETUPS):
        if fleet is not None:
            await fleet.close()
        before = cpu_ticks()
        fleet, setup_s = await _setup(workdir, k, frames, cpus and cpus[1])
        setups.append((setup_s, cpu_share(before, cpu_ticks())))

    extra: dict = {}
    try:
        gateway_cpus = cpus and cpus[1]
        phases = [await _phase(fleet, frames, WARMUP_FRAMES, n, gateway_cpus)]
        if traced:
            await fleet.gateway.command("trace")
            extra["stats_before"] = await fleet.clients[0].gateway_stats()
            phases.append(await _phase(fleet, frames, WARMUP_FRAMES + n, n, gateway_cpus))
            extra["stats_after"] = await fleet.clients[0].gateway_stats()
            extra["spans"] = await fleet.gateway.command("spans")
    finally:
        final = await fleet.close()
    return trajectories, phases, setups, final["peak_rss_mb"], fleet, extra


def run(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    cpus = placement()
    prov = provenance(
        "live",
        seed,
        monitors.ARCHITECTURES["paper"],
        placement=(
            f"generator cpu {min(cpus[0])}, gateway cpu {min(cpus[1])}" if cpus else "unpinned"
        ),
    )
    everywhere = os.sched_getaffinity(0)
    if cpus is not None:
        os.sched_setaffinity(0, cpus[0])
    try:
        trajectories, phases, setups, rss, fleet, extra = asyncio.run(
            _measure(seed, seconds, traced, workdir, cpus)
        )
    finally:
        os.sched_setaffinity(0, everywhere)
    prov["serving_blas_threads"] = fleet.gateway.blas_threads
    n_sent = phases[-1][-1]["first"] + phases[-1][-1]["n"]
    refs = monitors.stream_references(monitors.build_monitor("paper"), trajectories)
    oks, recvs, failed = _check(fleet, refs, n_sent)

    out = Outcome(
        provenance=prov,
        e2e=_e2e(phases[0], oks, recvs),
        attempted=SESSIONS * n_sent,
        failed=failed,
        raw={k: v for k, (v, _) in _e2e(phases[0], oks, recvs, scaled=False).items()},
        speed=float(np.median([w["share"] for w in phases[0]])),
    )
    out.e2e["setup_s"] = (float(np.median([t * f for t, f in setups])), len(setups))
    out.e2e["peak_rss_mb"] = (rss, 1)
    out.raw.update(setup_s=float(np.median([t for t, _ in setups])), peak_rss_mb=rss)
    late = _lateness(phases[0])
    out.lines.append(
        f"  loadgen.late_ms.p99 {percentile_inf(late, 99):.3f} ms"
        f" (generator lateness; p50 {percentile_inf(late, 50):.3f} ms, n={late.size})"
    )
    if traced:
        out.e2e_traced = _e2e(phases[1], oks, recvs)
        _traced_layers(out, phases[1], oks, recvs, fleet, extra)
    return out


def _lateness(windows: list[dict]) -> np.ndarray:
    return np.concatenate([lateness_ms(w["due"], w["sent"]).ravel() for w in windows])


def _traced_layers(out: Outcome, windows, oks, recvs, fleet, extra) -> None:
    rec = tracing.Recorder.from_export(extra["spans"]["spans"])
    wall = sum(float(w["due"][-1, -1] - w["t0"]) + 1.0 / RATE_HZ for w in windows)
    layers = tracing.span_metrics(rec, wall)
    layers.update(extra["spans"]["store"])

    tick_of = {key: t for t in rec.busy_ticks() for key in rec.tick_keys[t.id]}
    hops = {name: [] for name in ("inbound", "queue", "tick", "outbound", "total")}
    frames_out = []
    residual = 0.0
    for w in windows:
        for i, sid in enumerate(fleet.sids):
            for k in range(w["n"]):
                f = w["first"] + k
                tick = tick_of.get((sid, f))
                if not oks[i, f] or tick is None:
                    continue
                due, recv = w["due"][k, i], recvs[i, f]
                entered = rec.feed_time(sid, f)
                parts = (entered - due, tick.start - entered, tick.duration, recv - tick.end)
                for name, value in zip(("inbound", "queue", "tick", "outbound"), parts):
                    hops[name].append(value * 1e3)
                hops["total"].append((recv - due) * 1e3)
                residual = max(residual, abs(sum(parts) - (recv - due)))
                frames_out.append(
                    [sid, f, due, w["sent"][k, i], w["done"][k, i], entered,
                     tick.start, tick.end, recv]
                )

    late = _lateness(windows)
    feed_us = np.concatenate([((w["done"] - w["sent"]) * 1e6).ravel() for w in windows])
    first = windows[0]["first"]
    n = windows[-1]["first"] + windows[-1]["n"] - first
    before, after = extra["stats_before"], extra["stats_after"]
    received = sum(
        1 for log in fleet.log for e in log if first <= e[1] < first + n
    )
    layers.update(
        {
            "loadgen.late_ms.p99": percentile_inf(late, 99),
            "loadgen.frames_sent": late.size,
            "remote.client.feed_us.p50": percentile_inf(feed_us, 50),
            "remote.client.feed_us.p99": percentile_inf(feed_us, 99),
            "remote.client.events_received": received,
            "remote.gateway.inbound_ms.p50": percentile_inf(hops["inbound"], 50),
            "remote.gateway.inbound_ms.p99": percentile_inf(hops["inbound"], 99),
            "remote.gateway.outbound_ms.p50": percentile_inf(hops["outbound"], 50),
            "remote.gateway.outbound_ms.p99": percentile_inf(hops["outbound"], 99),
            "remote.gateway.events_sent": after["events_sent"] - before["events_sent"],
            "remote.gateway.overflow_disconnects": after["connections"]["overflow_disconnects"],
            "remote.gateway.failed_sessions": after["sessions"]["failed_total"],
            "telemetry.alert_latency_us.p50": tracing.telemetry_p50_us(
                before["telemetry"], after["telemetry"]
            ),
        }
    )
    out.layers = layers
    out.spans = {"frames": frames_out, "gateway": extra["spans"]["spans"]}
    out.lines += _waterfall(hops, residual, late)
    out.lines += tracing.self_time_lines(rec)


def _waterfall(hops: dict, residual_s: float, late_ms) -> list[str]:
    """Per-hop table of the traced phase; means add up to the total."""
    total = np.asarray(hops["total"])
    lines = [
        f"live waterfall (traced phase, {total.size} frames; hop means add up "
        f"to the mean alert latency, max per-frame residual {residual_s * 1e6:.3f} us):",
        f"  {'hop':<10} {'mean ms':>9} {'share':>7} {'p50 ms':>9} {'p99 ms':>9}",
    ]
    mean_total = float(total.mean()) if total.size else math.nan
    for name in ("inbound", "queue", "tick", "outbound", "total"):
        v = np.asarray(hops[name])
        if not v.size:
            continue
        lines.append(
            f"  {name:<10} {v.mean():9.3f} {v.mean() / mean_total:7.1%} "
            f"{percentile_inf(v, 50):9.3f} {percentile_inf(v, 99):9.3f}"
        )
    lines.append(
        f"  (inbound includes generator lateness: mean {np.mean(late_ms):.3f} ms, "
        f"p99 {percentile_inf(late_ms, 99):.3f} ms)"
    )
    return lines
