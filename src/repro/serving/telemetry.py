"""Fleet telemetry registry: counters and histograms with mergeable snapshots.

Every serving layer keeps a :class:`TelemetryRegistry` of named
:class:`Counter` and :class:`Histogram` instruments —
``MonitorService`` counts emitted/flagged events and observes
alert latency (frame ingest → event emission) per tick; the sharded
router adds fail-safe and dropped-log counters; the gateway surfaces
the whole merged tree in ``gateway_stats()`` and therefore in the
STATS wire reply.

The design constraint is the process topology: worker shards live in
other processes, so instruments must *merge* — :meth:`TelemetryRegistry.
snapshot` produces a plain-JSON dict that crosses the worker pipe, and
:meth:`TelemetryRegistry.merge` folds any number of snapshots into an
aggregate registry whose histograms still answer percentile queries
(bucket-wise addition; bounds must agree).  Instruments are plain
Python counters — cheap enough for the tick loop — and are *not*
locked: each registry is owned by one thread/process and crosses
boundaries only as immutable snapshots.
"""

from __future__ import annotations

import bisect

import numpy as np

from ..errors import ConfigurationError

__all__ = ["Counter", "Histogram", "TelemetryRegistry"]

#: Default histogram bucket upper bounds: log2-spaced microseconds from
#: 1 µs to ~67 s, a range that covers sub-tick latencies through multi-
#: second stalls.  27 finite buckets + one overflow bucket.
DEFAULT_BOUNDS = tuple(float(2**i) for i in range(27))


class Counter:
    """A monotonically increasing named counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ConfigurationError("counters only go up")
        self.value += amount


class Histogram:
    """A fixed-bucket histogram with percentile estimation.

    ``bounds`` are inclusive upper bounds of the finite buckets, in
    increasing order; observations above the last bound land in the
    overflow bucket.  :meth:`percentile` answers from the cumulative
    bucket counts — the estimate is the smallest bound whose
    cumulative count covers the requested rank (the overflow bucket
    reports the largest finite bound), so merged cross-process
    histograms stay queryable without shipping raw samples.
    """

    __slots__ = ("name", "bounds", "buckets", "count", "total", "_edges")

    def __init__(self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS) -> None:
        if not bounds or list(bounds) != sorted(bounds):
            raise ConfigurationError("histogram bounds must be sorted and non-empty")
        self.name = name
        self.bounds = tuple(float(b) for b in bounds)
        self.buckets = [0] * (len(self.bounds) + 1)  # +1 overflow
        self.count = 0
        self.total = 0.0
        self._edges = np.asarray(self.bounds)

    def observe(self, value: float) -> None:
        """Record one observation."""
        self.buckets[bisect.bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def observe_many(self, values: np.ndarray) -> None:
        """Record a batch of observations in one vectorised pass.

        Same buckets and count as calling :meth:`observe` per value
        (``searchsorted`` on the left is ``bisect_left``); ``total``
        agrees up to float summation order.
        """
        values = np.asarray(values, dtype=float).reshape(-1)
        if not values.size:
            return
        hits = np.bincount(
            np.searchsorted(self._edges, values, side="left"),
            minlength=len(self.buckets),
        )
        self.buckets = [b + n for b, n in zip(self.buckets, hits.tolist())]
        self.count += values.size
        self.total += float(values.sum())

    def mean(self) -> float:
        """Mean of all observations (exact — tracked outside buckets)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Bucketed ``q``-th percentile (upper-bound estimate)."""
        if not self.count:
            return 0.0
        rank = max(1, int(round(q / 100.0 * self.count)))
        running = 0
        for i, n in enumerate(self.buckets):
            running += n
            if running >= rank:
                return self.bounds[min(i, len(self.bounds) - 1)]
        return self.bounds[-1]


class TelemetryRegistry:
    """A named set of instruments with mergeable JSON snapshots."""

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Get-or-create the named counter."""
        counter = self._counters.get(name)
        if counter is None:
            counter = self._counters[name] = Counter(name)
        return counter

    def histogram(
        self, name: str, bounds: tuple[float, ...] = DEFAULT_BOUNDS
    ) -> Histogram:
        """Get-or-create the named histogram."""
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self._histograms[name] = Histogram(name, bounds)
        return histogram

    def snapshot(self) -> dict:
        """Plain-JSON state: crosses pipes, merges, serialises."""
        return {
            "counters": {name: c.value for name, c in self._counters.items()},
            "histograms": {
                name: {
                    "bounds": list(h.bounds),
                    "buckets": list(h.buckets),
                    "count": h.count,
                    "total": h.total,
                    "mean": h.mean(),
                    "p50": h.percentile(50.0),
                    "p99": h.percentile(99.0),
                }
                for name, h in self._histograms.items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold one :meth:`snapshot` into this registry (additive)."""
        for name, value in snapshot.get("counters", {}).items():
            self.counter(name).inc(int(value))
        for name, state in snapshot.get("histograms", {}).items():
            bounds = tuple(float(b) for b in state["bounds"])
            histogram = self.histogram(name, bounds)
            if histogram.bounds != bounds:
                raise ConfigurationError(
                    f"histogram {name!r}: cannot merge differing bucket bounds"
                )
            for i, n in enumerate(state["buckets"]):
                histogram.buckets[i] += int(n)
            histogram.count += int(state["count"])
            histogram.total += float(state["total"])
