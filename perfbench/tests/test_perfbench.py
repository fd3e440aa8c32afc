"""Tests of the benchmark's own arithmetic and checks.

Run: PYTHONPATH=src python -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import compare, tracing  # noqa: E402
from perfbench.common import (  # noqa: E402
    Span,
    check_session,
    cpu_share,
    lateness_ms,
    open_loop_schedule,
    percentile_inf,
    provenance,
    scale_factor,
    self_times,
    stream_reference,
)


class TestPercentiles:
    def test_nearest_rank(self):
        values = np.arange(1, 101, dtype=float)
        assert percentile_inf(values, 50) == 50.0
        assert percentile_inf(values, 99) == 99.0

    def test_missing_alerts_count_as_infinite(self):
        values = np.append(np.arange(1, 100, dtype=float), math.inf)
        assert percentile_inf(values, 99) == 99.0  # one miss, beyond p99
        assert percentile_inf(values, 100) == math.inf
        two_missing = np.append(np.arange(1, 99, dtype=float), [math.inf, math.inf])
        assert percentile_inf(two_missing, 99) == math.inf
        assert percentile_inf(two_missing, 50) == 50.0

    def test_nan_is_missing_and_empty_is_infinite(self):
        assert percentile_inf([1.0, np.nan], 100) == math.inf
        assert percentile_inf([], 50) == math.inf


class TestSelfTime:
    def test_children_are_subtracted_once(self):
        spans = [
            Span(0, "service.tick", 0.0, 10.0, None),
            Span(1, "windows.push", 1.0, 3.0, 0),
            Span(2, "backends.predict", 2.0, 5.0, 0),  # overlaps push
            Span(3, "backends.predict_proba", 7.0, 8.0, 0),
        ]
        out = self_times(spans)
        assert out["service.tick"] == pytest.approx(10.0 - 4.0 - 1.0)
        assert out["windows.push"] == pytest.approx(2.0)
        assert out["backends.predict"] == pytest.approx(3.0)

    def test_nested_grandchildren_only_reduce_their_parent(self):
        spans = [
            Span(0, "bulk.score", 0.0, 10.0, None),
            Span(1, "backends.score_bulk", 1.0, 9.0, 0),
            Span(2, "windows.push", 2.0, 4.0, 1),
            Span(3, "bulk.score", 20.0, 21.0, None),
        ]
        out = self_times(spans)
        assert out["bulk.score"] == pytest.approx(2.0 + 1.0)
        assert out["backends.score_bulk"] == pytest.approx(6.0)
        assert out["windows.push"] == pytest.approx(2.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [Span(0, "a", 0.0, 1.0, None), Span(1, "b", 0.5, 3.0, 0)]
        assert self_times(spans)["a"] == pytest.approx(0.5)


class TestOpenLoop:
    def test_schedule_staggers_phases_across_the_interval(self):
        due = open_loop_schedule(8, 3, 30.0, t0=100.0)
        assert due.shape == (3, 8)
        assert due[0, 0] == 100.0
        np.testing.assert_allclose(np.diff(due[0]), 1.0 / 240.0)
        np.testing.assert_allclose(due[1] - due[0], 1.0 / 30.0)

    def test_lateness_is_measured_from_the_schedule(self):
        """A stall delays every later send; each is late against *its*
        due time, not against the previous send."""
        due = open_loop_schedule(1, 6, 100.0, t0=0.0).ravel()  # 10 ms apart
        sent, clock = [], 0.0
        for k, d in enumerate(due):
            clock = max(clock, d)
            sent.append(clock)
            clock += 0.035 if k == 1 else 0.001  # frame 1's send stalls 35 ms
        late = lateness_ms(due, sent)
        np.testing.assert_allclose(late[:2], 0.0, atol=1e-9)
        np.testing.assert_allclose(late[2:], [25.0, 16.0, 7.0, 0.0], atol=1e-6)


class TestCpuShare:
    def test_share_of_the_wanted_time_the_hypervisor_granted(self):
        # 60 ticks busy, 40 stolen: the CPUs got 60% of what they wanted.
        assert cpu_share((100, 10), (160, 50)) == pytest.approx(0.6)

    def test_no_steal_or_no_ticks_is_the_full_share(self):
        assert cpu_share((5, 3), (9, 3)) == 1.0
        assert cpu_share((5, 3), (5, 3)) == 1.0

    def test_without_a_kernel_the_factor_is_the_share(self):
        assert scale_factor(None, (0, 0), (75, 25)) == pytest.approx(0.75)


def _reference(n: int = 10, seed: int = 0):
    rng = np.random.default_rng(seed)
    g = rng.integers(1, 16, size=n)
    s = rng.random(n)
    return stream_reference(g, s, threshold=0.5, warmup=2)


def _events(ref):
    g, s, f = ref
    n = g.size
    return [np.arange(n), g.copy(), s.copy(), f.copy(), np.zeros(n, dtype=bool)]


class TestOutputCheck:
    def test_exact_stream_passes(self):
        ref = _reference()
        assert check_session(*ref, 10, *_events(ref)).failed == 0

    def test_warmup_frames_report_no_context(self):
        g, s, f = _reference()
        assert (g[:2] == 0).all() and (s[:2] == 0.0).all() and not f[:2].any()

    def test_score_within_tolerance_passes_beyond_fails(self):
        ref = _reference()
        ev = _events(ref)
        ev[2][5] += 5e-7
        assert check_session(*ref, 10, *ev).failed == 0
        ev[2][5] += 2e-6
        result = check_session(*ref, 10, *ev)
        assert result.failed == 1 and not result.ok[5]

    def test_dropped_event_fails_its_frame(self):
        ref = _reference()
        ev = [np.delete(c, 4) for c in _events(ref)]
        result = check_session(*ref, 10, *ev)
        assert result.failed == 1 and not result.ok[4]

    def test_duplicate_error_and_order_failures(self):
        ref = _reference()
        dup = [np.insert(c, 3, c[3]) for c in _events(ref)]
        assert check_session(*ref, 10, *dup).failed == 1
        err = _events(ref)
        err[4][7] = True
        assert check_session(*ref, 10, *err).failed == 1
        swapped = [c[[0, 1, 2, 4, 3, 5, 6, 7, 8, 9]] for c in _events(ref)]
        assert check_session(*ref, 10, *swapped).failed == 1

    def test_wrong_gesture_or_flag_fails(self):
        ref = _reference()
        ev = _events(ref)
        ev[1][6] += 1
        ev[3][8] = ~ev[3][8]
        assert check_session(*ref, 10, *ev).failed == 2

    def test_stray_event_is_a_failure(self):
        ref = _reference()
        ev = [np.append(c, c[-1]) for c in _events(ref)]
        ev[0][-1] = 42
        result = check_session(*ref, 10, *ev)
        assert result.ok.all() and result.stray == 1 and result.failed == 1


class TestSpecAgreement:
    def test_benchmark_json_names_the_metrics_the_runs_print(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        e2e = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
        layers = [(m["name"], m["unit"]) for m in spec["per_layer"]]
        assert e2e == list(tracing.E2E)
        assert layers == list(tracing.PER_LAYER)

    def test_telemetry_p50_over_a_phase(self):
        bounds = [1.0, 2.0, 4.0, 8.0]
        before = {
            "histograms": {"alert_latency_us": {"bounds": bounds, "buckets": [5, 0, 0, 0, 0]}}
        }
        after = {"histograms": {"alert_latency_us": {"bounds": bounds, "buckets": [5, 1, 3, 1, 0]}}}
        assert tracing.telemetry_p50_us(before, after) == 4.0


class TestCompare:
    def _record(self, fps: float, **prov):
        p = provenance("backlog", seed=1, model="toy")
        p.update(prov)
        return {"provenance": p, "metrics": {"frames_per_s": {"value": fps, "unit": "frames/s"}}}

    def test_refuses_differing_provenance(self):
        status, lines = compare.compare(
            [self._record(100.0)], [self._record(100.0, blas_threads=7)], {}
        )
        assert status == 2 and "blas_threads" in lines[0]

    def test_flags_a_regression_beyond_the_bound(self):
        bounds = {"frames_per_s": ("higher", 0.1)}
        base = [self._record(v, seed=i) for i, v in enumerate((100.0, 101.0, 99.0))]
        same = [self._record(v, seed=9) for v in (100.5, 99.5)]
        slow = [self._record(v, seed=9) for v in (80.0, 81.0)]
        assert compare.compare(base, same, bounds)[0] == 0
        assert compare.compare(base, slow, bounds)[0] == 1


def test_traced_service_spans():
    """Installed wrappers see every tick and feed of a real service and
    leave the service as it was when removed."""
    pytest.importorskip("repro")
    from repro.serving import MonitorService, make_synthetic_monitor

    original_tick = MonitorService.tick
    rec = tracing.Recorder()
    restore = tracing.install(rec)
    try:
        service = MonitorService(make_synthetic_monitor(seed=0), max_sessions=2)
        rng = np.random.default_rng(0)
        for sid in ("a", "b"):
            service.open_session(sid, record_timeline=False)
            service.feed(sid, rng.standard_normal((6, 38)))
        service.feed("a", rng.standard_normal((2, 38)))
        service.drain()
    finally:
        restore()
    assert MonitorService.tick is original_tick
    metrics = tracing.span_metrics(rec, wall_s=1.0)
    assert metrics["service.ticks"] == 8
    assert metrics["service.batch_mean"] == pytest.approx(14 / 8)
    assert metrics["windows.push.calls"] == 16
    assert rec.feed_time("a", 7) == rec.feeds[2][3]  # second feed of "a"
    assert (tracing.queue_waits_ms(rec) >= 0).all()
    assert 0.0 < metrics["service.nonmodel_share"] < 1.0
