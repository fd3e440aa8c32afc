"""Multi-stream online serving of the safety-monitoring pipeline.

The architectural seam between the paper's single-demonstration replay
and a production deployment monitoring many procedures at once:

- :mod:`~repro.serving.service` — :class:`MonitorService`, the tick-based
  engine that batches ready windows *across* concurrent sessions so each
  pipeline stage runs once per tick instead of once per stream;
- :mod:`~repro.serving.sharded` — :class:`ShardedMonitorService`, the
  scale-out layer fanning sessions across worker processes by
  consistent hashing, each worker running its own ``MonitorService``,
  plus :func:`suggest_shard_count`, the autoscaling policy over
  ``shard_stats()``, and the elasticity actuators ``add_shard`` /
  ``remove_shard`` / ``resize`` that live-migrate sessions (state,
  pending frames and all) instead of closing them;
- :mod:`~repro.serving.autoscaler` — :class:`MonitorAutoscaler`, the
  loop that applies ``suggest_shard_count`` recommendations through
  ``resize`` under hysteresis;
- :mod:`~repro.serving.balancer` — :func:`plan_sheds` /
  :class:`MonitorBalancer`, the second control level: resize fixes
  capacity, the balancer fixes *skew* by continuously shedding
  sessions off hot shards through the live-migration path (placement
  overlay keeps routing with the moved sessions), with hysteresis,
  per-cycle migration budgets and flap suppression so the two levels
  never fight;
- :mod:`~repro.serving.async_frontend` — :class:`AsyncShardedMonitor`,
  the asyncio ingest/egress façade whose ``feed()``/``events()`` never
  block on a slow shard;
- :mod:`~repro.serving.remote` — the network front door:
  :class:`MonitorGateway` serves the engines over TCP with a compact
  binary wire protocol, bounded per-connection send queues
  (backpressure) and fail-safe disconnect semantics;
  :class:`RemoteMonitorClient` / :class:`AsyncRemoteMonitorClient` are
  the SDKs and :class:`GatewayRunner` the sync-world bridge;
- :mod:`~repro.serving.snapshot` — :func:`monitor_to_bytes` /
  :func:`monitor_from_bytes`, the no-pickled-code monitor archive that
  bootstraps every worker process;
- :mod:`~repro.serving.bulk` — :class:`BulkScorer` and the
  :func:`score_procedure` / :func:`score_procedures` conveniences, the
  *offline* workload: whole recorded procedures scored in one fused
  batch per pipeline stage (one GEMM per Dense stage) over zero-copy
  strided window views, bit-identical to the looped
  ``SafetyMonitor.process`` under the reference backend;
- :mod:`~repro.serving.eventstore` — :class:`EventStoreWriter` /
  :class:`EventStoreReader`, the durable observability plane: an
  append-only, schema-versioned, segmented on-disk event log every
  serving layer can tee its :class:`SessionEvent` stream into through
  a non-blocking bounded ring (a full ring is a counted drop, never a
  stalled tick), replayable bit-identically after the fact;
- :mod:`~repro.serving.telemetry` — :class:`TelemetryRegistry`, the
  counters/histograms registry threaded service → sharded router →
  gateway and surfaced in the STATS wire reply;
- :mod:`~repro.serving.analytics` — offline queries over a stored log
  (error rates by gesture/session/shard, alert-latency percentiles,
  fail-safe summaries) plus JSON/CSV export;
- :mod:`~repro.serving.synthetic` — instant, deterministic synthetic
  monitors and trajectories for parity tests and throughput benchmarks.

:meth:`repro.core.SafetyMonitor.stream` is a thin one-session wrapper
over the same engine, so single-stream, fleet, sharded and remote
serving share one hot path and agree bit for bit.  Every entry point
takes a ``backend`` choice (:mod:`repro.nn.backends`): ``"reference"``
keeps the bit-exact contract, ``"compiled"``/``"compiled-f32"`` run the
folded zero-allocation plans.  See ``docs/architecture.md``,
``docs/serving.md`` and ``docs/remote.md``.
"""

from .async_frontend import AsyncShardedMonitor
from .autoscaler import MonitorAutoscaler
from .balancer import MonitorBalancer, ShedPlan, plan_sheds
from .bulk import BulkScorer, score_procedure, score_procedures
from .eventstore import EventStoreReader, EventStoreWriter, StoredRecord
from .remote import (
    AsyncRemoteMonitorClient,
    GatewayRunner,
    MonitorGateway,
    RemoteMonitorClient,
    ResumeState,
)
from .service import (
    EventBatch,
    MonitorService,
    ServiceStats,
    SessionEvent,
    SessionResult,
    SessionState,
)
from .sharded import ShardedMonitorService, suggest_shard_count
from .snapshot import (
    monitor_from_bytes,
    monitor_to_bytes,
    session_from_bytes,
    session_to_bytes,
    snapshot_backend,
)
from .synthetic import make_random_walk_trajectory, make_synthetic_monitor
from .telemetry import Counter, Histogram, TelemetryRegistry

__all__ = [
    "AsyncRemoteMonitorClient",
    "AsyncShardedMonitor",
    "BulkScorer",
    "Counter",
    "EventBatch",
    "EventStoreReader",
    "EventStoreWriter",
    "GatewayRunner",
    "Histogram",
    "MonitorAutoscaler",
    "MonitorBalancer",
    "MonitorGateway",
    "MonitorService",
    "RemoteMonitorClient",
    "ResumeState",
    "ServiceStats",
    "SessionEvent",
    "SessionResult",
    "SessionState",
    "ShardedMonitorService",
    "ShedPlan",
    "StoredRecord",
    "TelemetryRegistry",
    "make_random_walk_trajectory",
    "make_synthetic_monitor",
    "monitor_from_bytes",
    "monitor_to_bytes",
    "plan_sheds",
    "score_procedure",
    "score_procedures",
    "session_from_bytes",
    "session_to_bytes",
    "snapshot_backend",
    "suggest_shard_count",
]
