"""One-command benchmark of the treedecode ``fit -> decode -> evaluate`` pipeline.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

For each workload this builds the taxonomies and corpora from the seed,
runs the CLI stages for ``--seconds``, split over a few fresh child
processes (``pipeline.py``), times set-up in fresh interpreters
(``setup_probe.py``), both in reference seconds (``clock.py``), checks
the outputs, prints every metric with its unit and writes a results file
to ``perfbench/out/``. The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics of BENCHMARK.json, or its per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from statistics import median

from clock import calibration, reference_seconds
from source import ROOT, import_treedecode

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
SETUP_PROBES = 9
# The run is split over this many pipeline processes, one after another,
# and their repetitions pooled. Hash randomization and memory layout make
# one process several percent faster or slower than the next for the
# whole of its life; pooling several averages that out.
PROCESSES = 5
# End-to-end figures printed with the rest but left out of BENCHMARK.json,
# as (unit, note). The CPU and wall times are the gated reference times
# before calibration; they follow the host's load too closely to bound.
# The others are 0 or fixed by the seed, so they cannot carry a relative bound.
REPORTED_ONLY = {
    "pipeline_cpu_s": ("s", "pipeline_ref_s in CPU seconds"),
    "decode_docs_per_cpu_s": ("1/s", "decode_docs_per_ref_s in CPU seconds"),
    "setup_cpu_s": ("s", "setup_s in CPU seconds"),
    "pipeline_s": ("s", "pipeline_ref_s in wall seconds"),
    "decode_docs_per_s": ("1/s", "decode_docs_per_ref_s in wall seconds"),
    "micro_f1": ("ratio", "constrained predictions, mean over trees"),
    "c_micro_f1": ("ratio", "constrained predictions, mean over trees"),
    "search_error_rate": ("ratio", "beam 4 vs exhaustive search, tiny random trees"),
    "failed_share": ("ratio", "failed / attempted operations"),
}
REFERENCE = HERE / "reference_digests.json"


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def stage_seconds(rep: dict, kind: str | None = None, clock: str = "reference") -> float:
    """Reference seconds of a repetition's stages; CPU seconds with ``clock="seconds"``, wall with "wall_seconds"."""
    if clock == "reference":
        return reference_seconds(stage_seconds(rep, kind, "seconds"), rep["calibration_s"])
    return sum(s[clock] for s in rep["stages"] if kind is None or s["kind"] == kind)


def docs_per_second(rep: dict, clock: str = "reference") -> float:
    docs = sum(s["attempted"] for s in rep["stages"] if s["kind"] == "decode")
    return docs / stage_seconds(rep, "decode", clock)


def setup_seconds(plan_path: Path) -> tuple[list[float], list[float]]:
    """Fresh-process set-ups, each in reference seconds and in CPU seconds, with calibration runs between them."""
    reference, cpu = [], []
    before = calibration()
    for _ in range(SETUP_PROBES):
        seconds = float(run_child([str(HERE / "setup_probe.py"), str(plan_path)], timeout=60).stdout)
        after = calibration()
        reference.append(reference_seconds(seconds, (before + after) / 2))
        cpu.append(seconds)
        before = after
    return reference, cpu


def run_child(argv: list[str], timeout: float) -> subprocess.CompletedProcess:
    child = subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=timeout
    )
    if child.returncode != 0:
        sys.stderr.write(child.stderr)
        raise SystemExit(f"error: {' '.join(argv[:1])} exited with {child.returncode}")
    return child


def report_values(stages: list[dict], mode: str, metric: str) -> list[float | None]:
    """One metric from each evaluate report of a decode mode; None where that evaluate failed."""
    paths = [Path(s["report"]) for s in stages if s["kind"] == "evaluate" and s["mode"] == mode]
    return [json.loads(p.read_text(encoding="utf-8"))[metric] if p.exists() else None for p in paths]


def mean(values: list[float | None]) -> float:
    present = [v for v in values if v is not None]
    return statistics.fmean(present) if present else 0.0


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from checks import deep_chain_errors, invalid_predictions, search_error_rates

    work = OUT / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    stages = workloads.build(workload, seed, work)
    inputs = {path.name: sha256(path) for path in sorted(work.iterdir())}
    plan_path, result_path = work / "plan.json", work / "result.json"
    results = []
    for index in range(PROCESSES):
        # Only the first process runs the traced loop, a third of the run long.
        plan = {"stages": stages, "seconds": seconds / PROCESSES, "trace_seconds": seconds / 3 if trace and not index else 0}
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        timeout = 2 * (plan["seconds"] + plan["trace_seconds"]) + 60
        run_child([str(HERE / "pipeline.py"), str(plan_path), str(result_path)], timeout=timeout)
        results.append(json.loads(result_path.read_text(encoding="utf-8")))
    reps = [rep for result in results for rep in result["reps"]]
    traced = [rep for result in results for rep in result.get("traced_reps", [])]
    setup, setup_cpu = setup_seconds(plan_path)

    # Every repetition is one attempt per decoded document, fit and evaluate
    # call, plus one comparison of its prediction digest with the reference.
    all_reps = [rep for result in results for rep in result["warmup_reps"]] + reps + traced
    attempted = sum(s["attempted"] for rep in all_reps for s in rep["stages"]) + len(all_reps)
    failed = sum(s["failed"] for rep in all_reps for s in rep["stages"])
    references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    reference = references.get(workload, {}).get(str(seed))
    expected = reference or reps[0]["digest"]
    mismatched = sum(rep["digest"] != expected for rep in all_reps)
    invalid = invalid_predictions(stages)
    failed += mismatched + len(invalid) * len(all_reps)

    strict = report_values(stages, "constrained", "c_micro_f1")
    searched = search_error_rates(seed)
    pipeline = [stage_seconds(rep) for rep in reps]
    pipeline_cpu = [stage_seconds(rep, clock="seconds") for rep in reps]
    pipeline_wall = [stage_seconds(rep, clock="wall_seconds") for rep in reps]
    end_to_end = {
        "pipeline_ref_s": median(pipeline),
        "decode_docs_per_ref_s": median([docs_per_second(rep) for rep in reps]),
        "setup_s": median(setup),
        "peak_rss_mb": max(result["peak_rss_mb"] for result in results),
        "micro_f1": mean(report_values(stages, "constrained", "micro_f1")),
        "c_micro_f1": mean(strict),
        "pipeline_cpu_s": median(pipeline_cpu),
        "decode_docs_per_cpu_s": median([docs_per_second(rep, "seconds") for rep in reps]),
        "setup_cpu_s": median(setup_cpu),
        "pipeline_s": median(pipeline_wall),
        "decode_docs_per_s": median([docs_per_second(rep, "wall_seconds") for rep in reps]),
    }
    end_to_end.update(search_error_rate=searched[4], failed_share=failed / attempted)
    extra = {
        "repetitions": len(reps),
        "processes": PROCESSES,
        "pipeline_ref_s_quartiles": quartiles(pipeline),
    }
    if workload == "ablation":
        loose = report_values(stages, "unconstrained", "c_micro_f1")
        extra["unconstrained_c_micro_f1"] = mean(loose)
        extra["constrained_wins"] = sum(a is not None and b is not None and a >= b for a, b in zip(strict, loose))
        extra["trees"] = len(strict)

    per_layer: dict[str, float] = {}
    chain: dict[str, str] = {}
    if trace:
        for name in traced[0]["layers"]:
            per_layer[name] = median([rep["layers"][name] for rep in traced])
        beam_ms = [ms for rep in traced for ms in rep["beam_ms"]]
        per_layer["decoding.beam_ms_p50"] = percentile(beam_ms, 0.5)
        per_layer["decoding.beam_ms_p90"] = percentile(beam_ms, 0.9)
        for kind in ("fit", "decode", "evaluate"):
            per_layer[f"cli.{kind}_s"] = median([stage_seconds(rep, kind) for rep in traced])
        per_layer["trace.overhead_s"] = median([stage_seconds(rep) for rep in traced]) - end_to_end["pipeline_ref_s"]
        per_layer["decoding.search_error_rate"] = searched[4]
        per_layer["decoding.search_error_rate_beam1"] = searched[1]
        chain = deep_chain_errors()
        per_layer["linearizer.deep_chain_ok"] = 0 if chain else 1

    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "run_seconds": seconds,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "workers": 1,
        "inputs_sha256": inputs,
        "predictions_sha256": reps[0]["digest"],
        "reference_sha256": reference,
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": {
            "digest_mismatches": mismatched,
            "invalid_predictions": invalid,
            "stage_errors": [s["error"] for rep in all_reps for s in rep["stages"] if s["failed"]][:5],
        },
        "deep_chain_errors": chain,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "extra": extra,
        "samples": {
            "pipeline_ref_s": pipeline,
            "traced_pipeline_ref_s": [stage_seconds(rep) for rep in traced],
            "decode_docs_per_ref_s": [docs_per_second(rep) for rep in reps],
            "pipeline_cpu_s": pipeline_cpu,
            "pipeline_s": pipeline_wall,
            "calibration_s": [rep["calibration_s"] for rep in reps],
            "setup_s": setup,
            "setup_cpu_s": setup_cpu,
        },
    }


def percentile(samples: list[float], share: float) -> float:
    if len(samples) < 2:
        return samples[0] if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[round(share * 100) - 1]


def selected(summary: dict) -> dict[str, dict]:
    """The metrics BENCHMARK.json names for this mode, with their units."""
    key, values = ("per_layer", summary["per_layer"]) if summary["trace"] else ("end_to_end", summary["end_to_end"])
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in SPEC[key]}


def report(summary: dict) -> None:
    print(f"== {summary['workload']} (seed {summary['seed']}, {summary['extra']['repetitions']} repetitions,"
          f" python {summary['python']}, nproc {summary['nproc']}, workers 1)")
    for m in SPEC["end_to_end"]:
        print(f"  {m['name']:<34} {summary['end_to_end'][m['name']]:>14.6g} {m['unit']}")
    for name, (unit, note) in REPORTED_ONLY.items():
        print(f"  {name:<34} {summary['end_to_end'][name]:>14.6g} {unit}  ({note})")
    if "constrained_wins" in summary["extra"]:
        extra = summary["extra"]
        print(f"  constrained C-MicroF1 >= unconstrained on {extra['constrained_wins']} of {extra['trees']} trees"
              f" (unconstrained mean {extra['unconstrained_c_micro_f1']:.4f})")
    if summary["trace"]:
        for m in SPEC["per_layer"]:
            print(f"  {m['name']:<34} {summary['per_layer'][m['name']]:>14.6g} {m['unit']}")
        for step, error in summary["deep_chain_errors"].items():
            print(f"  deep chain {step}: {error}")
    checked = "no reference for this seed" if summary["reference_sha256"] is None else "matches reference"
    if summary["failures"]["digest_mismatches"]:
        checked = "MISMATCH"
    print(f"  predictions sha256 {summary['predictions_sha256'][:16]}... ({checked});"
          f" failed {summary['failed']} of {summary['attempted']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    names = [w["name"] for w in SPEC["workloads"]]
    parser.add_argument("--workload", choices=[*names, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-digest", action="store_true",
        help="store this run's prediction digests as the reference for its seed",
    )
    args = parser.parse_args()
    import_treedecode()

    summaries = []
    for workload in names if args.workload == "all" else [args.workload]:
        summary = run_workload(workload, args.seed, args.seconds, bool(args.trace))
        OUT.mkdir(exist_ok=True)
        (OUT / f"{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
            json.dumps(summary, indent=2) + "\n", encoding="utf-8"
        )
        report(summary)
        summaries.append(summary)

    if args.record_digest:
        references = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
        for summary in summaries:
            references.setdefault(summary["workload"], {})[str(args.seed)] = summary["predictions_sha256"]
        REFERENCE.write_text(json.dumps(references, indent=2, sort_keys=True) + "\n", encoding="utf-8")

    if len(summaries) == 1:
        metrics = selected(summaries[0])
    else:
        metrics = {f"{s['workload']}.{name}": v for s in summaries for name, v in selected(s).items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
