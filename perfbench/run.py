"""Frame-to-alert benchmark of the safety-monitor serving stack.

Run from the root of a checkout:

    python3 perfbench/run.py --workload live --seed 1 --seconds 10 --trace 0

``--workload`` is one of ``live``, ``backlog``, ``fleet``, ``offline``
or ``all`` (each of the four in turn, in its own process).  With
``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it measures them untraced, then again with every layer
traced, and reports the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
non-zero when any output disagrees with the reference computation.

Each run also writes a record (provenance + metrics) to
``perfbench/out/records/`` and, when traced, its spans to
``perfbench/out/``; ``perfbench/compare.py`` compares sets of records.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
WORKLOADS = ("live", "backlog", "fleet", "offline")


def _finite(value: float):
    return value if math.isfinite(value) else None


def _run_workload(name: str, seed: int, seconds: float, traced: bool, workdir: Path):
    if name == "live":
        from perfbench import live

        return live.run(seed, seconds, traced, workdir)
    if name == "offline":
        from perfbench import offline

        return offline.run(seed, seconds, traced, workdir)
    from perfbench import closed

    return closed.run(name, seed, seconds, traced, workdir)


def _report(name: str, outcome, traced: bool, units: dict) -> list[str]:
    lines = [f"perfbench {name}: " + json.dumps(outcome.provenance, sort_keys=True)]
    header = "untraced end-to-end" if traced else "end-to-end"
    lines.append(
        f"{header} (durations at reference machine speed; wall clock in brackets, "
        f"speed factor {outcome.speed:.3f}):"
    )
    for metric, (value, n) in outcome.e2e.items():
        lines.append(
            f"  {metric:<16} {value:14.4f} {units[metric]:<9} n={n:<8}"
            f" [{outcome.raw.get(metric, value):.4f}]"
        )
    ratio = outcome.failed / outcome.attempted
    lines.append(f"  {'failed_ratio':<16} {ratio:14.6f} {'ratio':<9} n={outcome.attempted}")
    if traced:
        lines.append("traced end-to-end (and tracing overhead = traced - untraced):")
        for metric, (value, n) in outcome.e2e_traced.items():
            base = outcome.e2e[metric][0]
            lines.append(
                f"  {metric:<16} {value:14.4f} {units[metric]:<9} n={n}"
                f"  overhead {value - base:+.4f} ({(value - base) / base:+.1%})"
            )
    lines.extend(outcome.lines)
    if traced:
        lines.append("per-layer metrics:")
        for metric, value in outcome.layers.items():
            lines.append(f"  {metric:<38} {value:16.4f} {units[metric]}")
    return lines


def run_one(args) -> int:
    from perfbench import tracing

    units = dict(tracing.E2E + tracing.PER_LAYER)
    traced = bool(args.trace)
    workdir = OUT / f"tmp-{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        outcome = _run_workload(args.workload, args.seed, args.seconds, traced, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if traced:
        layers = {name: 0.0 for name, _ in tracing.PER_LAYER}
        layers.update(outcome.layers)
        layers["alert_p99_ms"] = outcome.e2e["alert_p99_ms"][0]
        for metric in ("alert_p50_ms", "alert_p99_ms", "frames_per_s"):
            layers[f"trace.overhead.{metric}"] = (
                outcome.e2e_traced[metric][0] - outcome.e2e[metric][0]
            )
        outcome.layers = layers
        chosen = [(name, layers[name], unit) for name, unit in tracing.PER_LAYER]
    else:
        chosen = [(name, outcome.e2e[name][0], unit) for name, unit in tracing.E2E]
    correct = outcome.failed == 0
    result = {
        "correct": correct,
        "attempted": int(outcome.attempted),
        "failed": int(outcome.failed),
        "metrics": {
            name: {"value": _finite(float(value)), "unit": unit}
            for name, value, unit in chosen
        },
    }

    records = OUT / "records"
    records.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-trace{args.trace}-seed{args.seed}"
    record = dict(
        result,
        provenance=outcome.provenance,
        samples={name: n for name, (_, n) in outcome.e2e.items()},
        wall_clock=outcome.raw,
        speed_factor=outcome.speed,
    )
    (records / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if outcome.spans is not None:
        (OUT / f"spans-{stem}.json").write_text(json.dumps(outcome.spans))

    for line in _report(args.workload, outcome, traced, units):
        print(line)
    if not correct:
        print(
            f"OUTPUT MISMATCH: {outcome.failed} of {outcome.attempted} frames "
            "without exactly one correct event",
            file=sys.stderr,
        )
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOADS:
        cmd = [
            sys.executable, str(Path(__file__)), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(lines[:-1]), flush=True)
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            print(f"{name}: no result (exit {proc.returncode})", file=sys.stderr)
            return proc.returncode or 1
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined), flush=True)
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    # Import the benchmark as the ``perfbench`` package and the program
    # from ``src/``; the script's own directory must not shadow either.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]
    sys.exit(main())
