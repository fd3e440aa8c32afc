"""Pure helpers shared by every workload: statistics, schedules, checks.

Nothing here imports :mod:`repro`, so the benchmark's own arithmetic is
testable without the program under test (``perfbench/tests``).
"""

from __future__ import annotations

import ctypes
import math
import os
import platform
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: Score agreement required against the reference computation: the
#: compiled backend's parity contract with the reference backend.
SCORE_ATOL = 1e-6


# ----------------------------------------------------------------------
# Machine-speed calibration
# ----------------------------------------------------------------------
#: Nominal durations of the two calibration kernels.  Reported durations
#: are rescaled to a machine that runs the kernel in exactly this time.
CAL_REF_S = {"interp": 0.009, "gemm": 0.005}

_CAL_SMALL = np.random.default_rng(0).random((48, 48))
_CAL_LARGE = np.random.default_rng(1).random((256, 256))


def calibration_kernel(kind: str = "interp") -> float:
    """Seconds for a fixed piece of work.

    ``"interp"`` is an interpreter loop plus small matrix products: the
    per-session Python and small-batch model work of the serving tick.
    ``"gemm"`` is large matrix products on the configured BLAS threads:
    the work of bulk scoring.
    """
    start = time.perf_counter()
    if kind == "gemm":
        for _ in range(8):
            _CAL_LARGE @ _CAL_LARGE
    else:
        acc = 0
        for i in range(80_000):
            acc += i * i
        for _ in range(800):
            _CAL_SMALL @ _CAL_SMALL
    return time.perf_counter() - start


def speed_factor(kind: str = "interp", repeats: int = 3) -> float:
    """``CAL_REF_S[kind]`` over the fastest of ``repeats`` kernel runs.

    Shared machines change speed by tens of percent within a minute
    (co-tenants, frequency scaling), and every part of a run slows
    together.  A duration measured while the factor was ``f`` is
    reported as ``duration * f``: the time it would have taken at the
    reference speed.  Call it while the program under test is idle.
    """
    return CAL_REF_S[kind] / min(calibration_kernel(kind) for _ in range(repeats))


def cpu_ticks(cpus=None) -> tuple[int, int]:
    """``(busy, stolen)`` clock ticks so far (``/proc/stat``) of all
    CPUs, or of the CPU numbers in ``cpus``.

    ``stolen`` is time a virtual CPU wanted to run while the hypervisor
    ran someone else.  The fastest-of-three kernel in
    :func:`speed_factor` never sees it; a run that goes on for seconds
    does.
    """
    names = {"cpu"} if cpus is None else {f"cpu{c}" for c in cpus}
    busy = stolen = 0
    with open("/proc/stat") as fh:
        for line in fh:
            fields = line.split()
            if not fields or not fields[0].startswith("cpu"):
                break
            if fields[0] in names:
                user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
                busy += user + nice + system + irq + softirq
                stolen += steal
    return busy, stolen


def cpu_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    """Of the time the CPUs wanted to run between two :func:`cpu_ticks`
    reads, the share the hypervisor gave them (1.0 with no steal)."""
    busy, stolen = after[0] - before[0], after[1] - before[1]
    return busy / (busy + stolen) if busy + stolen > 0 else 1.0


def scale_factor(kernel: str | None, before, after) -> float:
    """Factor that rescales work timed between two :func:`cpu_ticks`
    reads to the reference machine: the CPU share granted meanwhile
    times the :func:`speed_factor` of ``kernel`` (``None`` where no
    kernel tracks the work: the share alone).  A duration ``d`` is
    reported as ``d * factor``, a rate ``r`` as ``r / factor``.  Call it
    right after the work, while the program is idle.
    """
    share = cpu_share(before, after)
    return share * speed_factor(kernel) if kernel is not None else share


@dataclass
class Outcome:
    """What one workload run measured.

    ``e2e`` maps each end-to-end metric to ``(value, sample count)``,
    measured untraced.  A traced run also fills ``e2e_traced`` (the same
    metrics over the traced phase) and ``layers`` (per-layer metrics).
    ``attempted`` counts frames submitted, ``failed`` those without
    exactly one correct event (plus stray events).  Durations in ``e2e``
    are at reference machine speed (:func:`scale_factor`); ``raw`` keeps
    the same metrics as the wall clock read them, and ``speed`` the
    median factor applied.
    """

    provenance: dict
    e2e: dict[str, tuple[float, int]]
    attempted: int
    failed: int
    raw: dict[str, float]
    speed: float
    e2e_traced: dict[str, tuple[float, int]] | None = None
    layers: dict[str, float] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)
    spans: dict | None = None


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile_inf(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile; missing samples count as ``inf``.

    A frame that never received a correct alert is recorded as
    ``math.inf`` (or NaN), so it sorts above every measured latency: if
    more than ``100 - q`` percent of the frames are missing, the
    percentile itself is infinite.  Nearest rank (no interpolation)
    keeps the answer a sample that was actually observed.
    """
    v = np.asarray(values, dtype=float).ravel()
    if v.size == 0:
        return math.inf
    v = np.sort(np.where(np.isnan(v), np.inf, v))
    rank = max(1, math.ceil(q / 100.0 * v.size))
    return float(v[rank - 1])


# ----------------------------------------------------------------------
# Open-loop arrival schedule
# ----------------------------------------------------------------------
def open_loop_schedule(
    n_sessions: int, n_frames: int, rate_hz: float, t0: float
) -> np.ndarray:
    """Due times ``(n_frames, n_sessions)`` of an open-loop generator.

    Every session sends one frame per ``1 / rate_hz`` seconds; session
    ``i`` is offset by ``i / (rate_hz * n_sessions)`` so arrivals are
    staggered evenly across the frame interval instead of bursting.
    """
    period = 1.0 / rate_hz
    frames = np.arange(n_frames, dtype=float)[:, None] * period
    phases = np.arange(n_sessions, dtype=float)[None, :] * (period / n_sessions)
    return t0 + frames + phases


def lateness_ms(due, sent) -> np.ndarray:
    """How late each send started against its schedule, in ms (>= 0 when
    the generator kept up; a send never starts early)."""
    return (np.asarray(sent, dtype=float) - np.asarray(due, dtype=float)) * 1e3


# ----------------------------------------------------------------------
# Spans and self time
# ----------------------------------------------------------------------
class Span(NamedTuple):
    """One timed call into a layer; ``parent`` is the enclosing span id."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    rows: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted(
        (max(a, lo), min(b, hi)) for a, b in intervals if min(b, hi) > max(a, lo)
    )
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict[str, float]:
    """Total self time per span name, in the spans' time unit.

    A span's self time is its duration minus the part of its interval
    that its child spans cover (overlapping children count once).
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out: dict[str, float] = defaultdict(float)
    for span in spans:
        covered = covered_length(children.get(span.id, ()), span.start, span.end)
        out[span.name] += span.duration - covered
    return dict(out)


# ----------------------------------------------------------------------
# Output check
# ----------------------------------------------------------------------
@dataclass
class SessionCheck:
    """Outcome of checking one session's event stream."""

    ok: np.ndarray  # per submitted frame: exactly one correct event
    stray: int  # events naming no submitted frame

    @property
    def failed(self) -> int:
        return int(self.ok.size - np.count_nonzero(self.ok)) + self.stray


def check_session(
    ref_gestures: np.ndarray,
    ref_scores: np.ndarray,
    ref_flags: np.ndarray,
    n_submitted: int,
    frame_index,
    gesture,
    score,
    flag,
    error,
    atol: float = SCORE_ATOL,
) -> SessionCheck:
    """Check one session's events, in arrival order, against a reference.

    Frame ``k`` passes when exactly one event names it and that event
    carries no error, arrives after every earlier frame's event, matches
    the reference gesture and flag exactly and the reference score
    within ``atol``.  A missing, duplicate, out-of-order, error or
    mismatched event fails its frame; an event naming a frame that was
    never submitted is a stray failure of its own.
    """
    fi = np.asarray(frame_index, dtype=np.int64)
    ok = np.zeros(n_submitted, dtype=bool)
    if fi.size == 0:
        return SessionCheck(ok, 0)
    in_range = (fi >= 0) & (fi < n_submitted)
    seen = np.maximum.accumulate(np.where(in_range, fi, -1))
    previous = np.concatenate(([-1], seen[:-1]))
    in_order = fi > previous
    idx = np.where(in_range, fi, 0)
    good = (
        in_range
        & in_order
        & ~np.asarray(error, dtype=bool)
        & (np.asarray(gesture) == ref_gestures[idx])
        & (np.asarray(flag, dtype=bool) == ref_flags[idx])
        & (np.abs(np.asarray(score, dtype=float) - ref_scores[idx]) <= atol)
    )
    count = np.bincount(fi[in_range], minlength=n_submitted)
    good_count = np.bincount(fi[good], minlength=n_submitted)
    ok[:] = (count == 1) & (good_count == 1)
    return SessionCheck(ok, int(np.count_nonzero(~in_range)))


def stream_reference(gestures, scores, threshold: float, warmup: int):
    """Per-frame ``(gesture, score, flag)`` a live session must emit.

    The reference is a batch ``process()``-equivalent pass; the online
    engine reports gesture 0 and score 0.0 for the first ``warmup``
    frames (no complete gesture window yet) where the batch pass
    backfills, and agrees from there on.
    """
    g = np.asarray(gestures, dtype=np.int64).copy()
    s = np.asarray(scores, dtype=float).copy()
    g[:warmup] = 0
    s[:warmup] = 0.0
    return g, s, s >= threshold


# ----------------------------------------------------------------------
# Memory and provenance
# ----------------------------------------------------------------------
def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (``VmHWM``) of a process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise OSError(f"no VmHWM for process {pid}")


def reset_peak_rss() -> None:
    """Restart this process's peak-RSS mark from its current RSS, so the
    benchmark's own input generation does not count as serving memory."""
    with open("/proc/self/clear_refs", "w") as fh:
        fh.write("5")


def visible_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1


def blas_info() -> tuple[str, int | None]:
    """BLAS library name and its live thread count, where it tells us."""
    name = "unknown"
    try:
        name = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError, ValueError):
        pass
    threads = None
    try:
        with open("/proc/self/maps") as fh:
            libs = {ln.split()[-1] for ln in fh if "blas" in ln.lower()}
    except OSError:
        libs = set()
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = int(fn())
                break
        if threads is not None:
            break
    return name, threads


def provenance(workload: str, seed: int, model: str, **extra) -> dict:
    """Where and on what a run was measured (recorded on every run);
    ``extra`` adds workload-specific fields such as process placement."""
    blas, blas_threads = blas_info()
    affinity = visible_cores()
    return {
        "workload": workload,
        "seed": seed,
        "model": model,
        "cpu_count": os.cpu_count() or 1,
        "affinity": affinity,
        "blas": blas,
        "blas_threads": blas_threads,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "degraded": affinity < 2,
        **extra,
    }


#: Provenance fields that must agree before two runs may be compared;
#: the seed is expected to differ between runs.
COMPARABLE_FIELDS = (
    "workload",
    "model",
    "cpu_count",
    "affinity",
    "blas",
    "blas_threads",
    "numpy",
    "python",
    "degraded",
    "placement",
    "serving_blas_threads",
)


def provenance_mismatch(a: dict, b: dict) -> list[str]:
    """Comparable provenance fields on which two run records differ."""
    return [k for k in COMPARABLE_FIELDS if a.get(k) != b.get(k)]
