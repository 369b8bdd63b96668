"""Fold the results files in perfbench/out/ into one baseline file of medians and quartiles.

    python3 perfbench/summarize.py perfbench/BENCH_<n>.json

Each results file is one run (a workload, a seed, traced or not). For
every workload and metric this records the median over the runs found,
the quartiles, the number of runs and their seeds, plus the machine
facts the runs recorded.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

OUT = Path(__file__).resolve().parent / "out"


def summary(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def main() -> None:
    runs = [json.loads(path.read_text(encoding="utf-8")) for path in sorted(OUT.glob("*-seed*-trace*.json"))]
    if not runs:
        raise SystemExit(f"error: no results files in {OUT}; run perfbench/run.py first")
    baseline: dict = {
        "machine": sorted({f"python {r['python']}, nproc {r['nproc']}, workers {r['workers']}" for r in runs}),
        "run_seconds": sorted({r["run_seconds"] for r in runs}),
        "workloads": {},
    }
    for run in runs:
        entry = baseline["workloads"].setdefault(run["workload"], {"seeds": {}, "metrics": {}})
        entry["seeds"].setdefault(f"trace{run['trace']}", []).append(run["seed"])
        values = run["per_layer"] if run["trace"] else run["end_to_end"]
        for name, value in values.items():
            entry["metrics"].setdefault(name, []).append(value)
    for entry in baseline["workloads"].values():
        entry["seeds"] = {mode: sorted(seeds) for mode, seeds in sorted(entry["seeds"].items())}
        entry["metrics"] = {name: summary(values) for name, values in sorted(entry["metrics"].items())}
    Path(sys.argv[1]).write_text(json.dumps(baseline, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
