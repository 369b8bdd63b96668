"""Child process of run.py: run a workload's CLI stages in a timed loop, in process.

    python3 perfbench/pipeline.py PLAN.json RESULT.json

The plan holds the stages (argument lists for ``treedecode.cli.main``),
the run length in seconds and the length of the traced loop. One untimed
warm-up repetition runs first; then repetitions of the whole stage list
run back to back until the run length (wall time) is used up. Each stage
is timed in CPU seconds and in wall seconds, and each repetition records
the mean CPU time of the calibration runs before and after it
(``clock.py``). The peak memory of this process is read before any
tracing starts. Then, if ``trace_seconds`` is not 0, a second loop runs
that long with ``Tracer`` installed; its figures have no bound, so fewer
repetitions suffice.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

from clock import calibration, cpu_seconds
from source import import_treedecode
from tracer import Tracer


def run_stage(cli, stage: dict) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start, start_cpu = time.perf_counter(), cpu_seconds()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(stage["argv"])
    except SystemExit as exc:  # argparse rejected the arguments
        code = exc.code
    except Exception:  # counted as failed operations; the run goes on
        code = None
        err.write(traceback.format_exc())
    seconds, wall_seconds = cpu_seconds() - start_cpu, time.perf_counter() - start
    attempted = stage["docs"] if stage["kind"] == "decode" else 1
    failed = 0 if code == 0 else attempted
    if stage["kind"] == "decode" and code == 1:
        # decode exits 1 when documents overflow the length budget; its
        # stderr summary names them, and only those failed.
        try:
            failed = len(json.loads(err.getvalue().strip().splitlines()[-1])["overflow"])
        except (IndexError, KeyError, TypeError, ValueError):
            pass
    return {
        "kind": stage["kind"], "mode": stage.get("mode"), "seconds": seconds, "wall_seconds": wall_seconds,
        "code": code, "attempted": attempted, "failed": failed, "error": err.getvalue()[-2000:] if failed else "",
    }


def digest(stages: list[dict]) -> str:
    """sha256 over every prediction file of the repetition, in stage order."""
    sha = hashlib.sha256()
    for stage in stages:
        if stage["kind"] == "decode":
            path = Path(stage["predictions"])
            sha.update(path.read_bytes() if path.exists() else b"<missing>")
    return sha.hexdigest()


def warm_up(cli, stages: list[dict]) -> list[dict]:
    """One repetition outside the timed loop, so caches and lazy imports are in place before timing."""
    return [{"stages": [run_stage(cli, stage) for stage in stages], "digest": digest(stages)}]


def measure(cli, stages: list[dict], seconds: float, tracer: Tracer | None = None) -> list[dict]:
    """Repetitions for ``seconds``: at least one, and none that would, at the pace so far, end over half of one late."""
    reps = []
    before = calibration()
    start = time.perf_counter()
    stop = start + seconds
    while not reps or time.perf_counter() + (time.perf_counter() - start) / len(reps) / 2 < stop:
        if tracer is not None:
            tracer.reset()
        rep = {"stages": [run_stage(cli, stage) for stage in stages]}
        if tracer is not None:
            rep["layers"] = tracer.layers()
            rep["beam_ms"] = tracer.beam_ms
        rep["digest"] = digest(stages)
        after = calibration()
        rep["calibration_s"] = (before + after) / 2
        before = after
        reps.append(rep)
    return reps


def main() -> None:
    plan_path, result_path = sys.argv[1:3]
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    import_treedecode()
    from treedecode import cli

    result = {"warmup_reps": warm_up(cli, plan["stages"])}
    result["reps"] = measure(cli, plan["stages"], plan["seconds"])
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if plan["trace_seconds"]:
        tracer = Tracer()
        tracer.install()
        try:
            result["traced_reps"] = measure(cli, plan["stages"], plan["trace_seconds"], tracer)
        finally:
            tracer.uninstall()
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
