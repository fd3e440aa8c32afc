"""The gateway process of the ``live`` workload.

Serves the paper-scale monitor through a K=1 ``MonitorGateway`` on a
free localhost port, teeing alerts into an ``EventStoreWriter`` under
``--store``, pinned to ``--cpus`` when given.  It prints one JSON line
``{"port": ..., "blas_threads": ...}`` when it accepts connections,
then answers one command per stdin line, one JSON line each on stdout:

- ``trace`` — wrap the layers in span timers from now on;
- ``spans`` — flush the event store and return the spans recorded
  since ``trace`` plus the store's counters over the same interval;
- ``stop`` — stop the gateway, close the store, return peak RSS, exit.

End of stdin counts as ``stop``.  Started by ``perfbench/live.py``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _reply(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def serve(store_dir: str, max_sessions: int) -> None:
    from repro.serving import EventStoreWriter, MonitorGateway

    from perfbench import monitors, tracing
    from perfbench.common import blas_info, peak_rss_mb

    writer = EventStoreWriter(store_dir)
    gateway = MonitorGateway(
        monitors.build_monitor("paper"),
        n_shards=1,
        max_sessions=max_sessions,
        backend="compiled",
        event_store=writer,
    )
    _, port = await gateway.start()
    loop = asyncio.get_running_loop()
    stdin = asyncio.StreamReader()
    await loop.connect_read_pipe(
        lambda: asyncio.StreamReaderProtocol(stdin), sys.stdin
    )
    _reply({"port": port, "blas_threads": blas_info()[1]})
    rec = restore = None
    store_before = writer.stats()
    try:
        while True:
            command = (await stdin.readline()).decode().strip()
            if command == "trace":
                rec = tracing.Recorder()
                restore = tracing.install(rec)
                store_before = writer.stats()
                _reply({"tracing": True})
            elif command == "spans":
                writer.flush()
                _reply(
                    {
                        "spans": rec.export() if rec is not None else None,
                        "store": tracing.eventstore_metrics(store_before, writer.stats()),
                    }
                )
            else:  # "stop" or end of stdin
                break
    finally:
        if restore is not None:
            restore()
        await gateway.stop()
        writer.close()
    _reply({"peak_rss_mb": peak_rss_mb()})


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--store", required=True)
    parser.add_argument("--sessions", type=int, required=True)
    parser.add_argument("--cpus", default="", help="comma-separated cpus to run on")
    args = parser.parse_args()
    if args.cpus:
        os.sched_setaffinity(0, {int(c) for c in args.cpus.split(",")})
    asyncio.run(serve(args.store, args.sessions))


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    main()
