"""Offline workload: ``BulkScorer.score_many`` over whole procedures.

Each round scores the same recorded procedures with the paper-scale
monitor on the compiled backend.  Bulk scoring returns every frame of a
call at once, so a frame's alert latency is the wall time of its
``score_many`` call; ``alert_*`` and ``frames_per_s`` are medians over
rounds.  The tick, the wire, the fleet and the event store are not on
this path.
"""

from __future__ import annotations

import time
from pathlib import Path

import numpy as np

from repro.serving import BulkScorer

from perfbench import monitors, tracing
from perfbench.common import (
    SCORE_ATOL,
    Outcome,
    peak_rss_mb,
    provenance,
    cpu_ticks,
    reset_peak_rss,
    scale_factor,
)

PROCEDURES = 2
FRAMES = 1200  # frames per procedure: 40 s of 30 Hz kinematics
N_SETUPS = 5


def _phase(scorer, procs, seconds: float):
    """Score rounds until ``seconds`` of scoring; outputs kept for the
    check, which runs once the reference exists.  Returns per-round wall
    times, each round's :func:`scale_factor`, and the outputs."""
    walls, speeds, outputs = [], [], []
    while sum(walls) < seconds:
        before = cpu_ticks()
        start = time.perf_counter()
        out = scorer.score_many(procs)
        walls.append(time.perf_counter() - start)
        after = cpu_ticks()
        outputs.append(
            [(o.gestures.copy(), o.unsafe_scores.copy(), o.unsafe_flags.copy()) for o in out]
        )
        speeds.append(scale_factor("gemm", before, after))
    return walls, speeds, outputs


def _failed(outputs, refs) -> list[int]:
    """Per round: frames whose gesture, flag or score (atol) disagree."""
    failed = []
    for round_out in outputs:
        n = 0
        for (g, s, f), (ref_g, ref_s, ref_f) in zip(round_out, refs):
            ok = (
                (np.asarray(g) == ref_g)
                & (np.asarray(f, dtype=bool) == ref_f)
                & (np.abs(np.asarray(s) - ref_s) <= SCORE_ATOL)
            )
            n += int(ok.size - np.count_nonzero(ok))
        failed.append(n)
    return failed


def _e2e(walls, speeds, failed, frames_per_round: int) -> dict[str, tuple[float, int]]:
    """Medians over rounds; pass ``speeds`` of 1.0 for wall-clock values."""
    walls = [w * f for w, f in zip(walls, speeds)]
    rates = [(frames_per_round - k) / w for w, k in zip(walls, failed)]
    # Every frame of a call is alerted when the call returns; a failed
    # frame never is.
    lat = [w * 1e3 if k == 0 else np.inf for w, k in zip(walls, failed)]
    n = frames_per_round * len(walls)
    return {
        "alert_p50_ms": (float(np.median(lat)), n),
        "alert_p99_ms": (float(np.median(lat)), n),
        "frames_per_s": (float(np.median(rates)), n),
    }


def run(seed: int, seconds: float, traced: bool, workdir: Path) -> Outcome:
    procs = monitors.procedures(seed, PROCEDURES, FRAMES)
    frames_per_round = PROCEDURES * FRAMES

    reset_peak_rss()
    setups = []
    for _ in range(N_SETUPS):
        before = cpu_ticks()
        start = time.perf_counter()
        scorer = BulkScorer(monitors.build_monitor("paper"), backend="compiled")
        scorer.score_many(procs[:1])  # compiles the bulk plans
        wall = time.perf_counter() - start
        setups.append((wall, scale_factor("gemm", before, cpu_ticks())))

    walls, speeds, outputs = _phase(scorer, procs, seconds)
    rec = None
    if traced:
        rec = tracing.Recorder()
        restore = tracing.install(rec)
        try:
            t_walls, t_speeds, t_outputs = _phase(scorer, procs, seconds)
        finally:
            restore()
    rss = peak_rss_mb()

    refs = monitors.bulk_reference(scorer.monitor, procs)
    failed = _failed(outputs, refs)
    out = Outcome(
        provenance=provenance("offline", seed, monitors.ARCHITECTURES["paper"]),
        e2e=_e2e(walls, speeds, failed, frames_per_round),
        attempted=frames_per_round * len(walls),
        failed=sum(failed),
        raw={
            k: v for k, (v, _) in _e2e(walls, [1.0] * len(walls), failed, frames_per_round).items()
        },
        speed=float(np.median(speeds)),
    )
    if rec is not None:
        t_failed = _failed(t_outputs, refs)
        out.attempted += frames_per_round * len(t_walls)
        out.failed += sum(t_failed)
        out.e2e_traced = _e2e(t_walls, t_speeds, t_failed, frames_per_round)
        out.layers = tracing.span_metrics(rec, sum(t_walls))
        out.layers["loadgen.frames_sent"] = frames_per_round * len(t_walls)
        out.lines += tracing.self_time_lines(rec)
        out.spans = rec.export()
    out.e2e["setup_s"] = (float(np.median([t * f for t, f in setups])), len(setups))
    out.e2e["peak_rss_mb"] = (rss, 1)
    out.raw["setup_s"] = float(np.median([t for t, _ in setups]))
    out.raw["peak_rss_mb"] = rss
    return out
