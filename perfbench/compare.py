"""Compare two sets of run records, refusing runs measured differently.

    python3 perfbench/compare.py BASE NEW

``BASE`` and ``NEW`` are directories of run records (or single record
files) as ``perfbench/run.py`` writes them to ``perfbench/out/records``.
Records are grouped by workload and trace mode.  If any two records of
a group differ in comparable provenance (cores, affinity, BLAS and its
threads, numpy, python, model, degraded) the comparison is refused with
exit code 2.  Otherwise each metric is printed with both sides' median
and quartiles; an end-to-end metric whose new median is worse than the
base median by more than its bound in ``BENCHMARK.json`` exits 1.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def _group(records: list[dict]) -> dict[tuple, list[dict]]:
    groups: dict[tuple, list[dict]] = {}
    for r in records:
        traced = "trace.overhead.frames_per_s" in r["metrics"]
        key = (r["provenance"]["workload"], "traced" if traced else "untraced")
        groups.setdefault(key, []).append(r)
    return groups


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(base: list[dict], new: list[dict], bounds: dict) -> tuple[int, list[str]]:
    """Exit status and report lines for two record sets."""
    from perfbench.common import provenance_mismatch

    lines: list[str] = []
    status = 0
    b_groups, n_groups = _group(base), _group(new)
    for key in sorted(set(b_groups) & set(n_groups)):
        records = b_groups[key] + n_groups[key]
        first = records[0]["provenance"]
        for r in records[1:]:
            diff = provenance_mismatch(first, r["provenance"])
            if diff:
                return 2, [
                    f"refused: {key[0]} runs differ in provenance: "
                    + ", ".join(f"{k}={first.get(k)!r} vs {r['provenance'].get(k)!r}" for k in diff)
                ]
        lines.append(
            f"{key[0]} ({key[1]}): {len(b_groups[key])} base runs, "
            f"{len(n_groups[key])} new runs"
        )
        for metric in records[0]["metrics"]:
            b = [r["metrics"][metric]["value"] for r in b_groups[key]]
            n = [r["metrics"][metric]["value"] for r in n_groups[key]]
            if None in b or None in n:
                lines.append(f"  {metric}: non-finite values, not compared")
                status = max(status, 1)
                continue
            bq, nq = _quartiles(b), _quartiles(n)
            change = (nq[1] - bq[1]) / bq[1] if bq[1] else 0.0
            verdict = ""
            if metric in bounds:
                better, bound = bounds[metric]
                worse = -change if better == "higher" else change
                verdict = f"bound {bound:.0%}: " + ("WORSE" if worse > bound else "ok")
                if worse > bound:
                    status = max(status, 1)
            lines.append(
                f"  {metric:<34} base {bq[1]:12.4f} [{bq[0]:.4f}, {bq[2]:.4f}]"
                f"  new {nq[1]:12.4f} [{nq[0]:.4f}, {nq[2]:.4f}]  {change:+.1%} {verdict}"
            )
    return status, lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["better"], m["bound"]) for m in spec["end_to_end"]}
    status, lines = compare(load(Path(argv[0])), load(Path(argv[1])), bounds)
    print("\n".join(lines))
    return status


if __name__ == "__main__":
    sys.path[0:1] = [str(ROOT)]
    sys.exit(main(sys.argv[1:]))
