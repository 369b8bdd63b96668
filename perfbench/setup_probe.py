"""Child process of run.py: time one cold set-up of a workload in a fresh interpreter.

    python3 perfbench/setup_probe.py PLAN.json

Prints the CPU seconds (``clock.py``) taken to import treedecode, parse
every taxonomy of the workload and load every bigram model its fit
stages wrote.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from clock import cpu_seconds
from source import SRC


def main() -> None:
    plan = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    taxonomies = sorted({stage["argv"][stage["argv"].index("--taxonomy") + 1] for stage in plan["stages"]})
    models = [stage["model"] for stage in plan["stages"] if stage["kind"] == "fit"]
    sys.path.insert(0, str(SRC))

    start = cpu_seconds()
    import treedecode  # the import is part of what is timed

    for path in taxonomies:
        treedecode.parse_taxonomy(Path(path).read_text(encoding="utf-8"))
    for path in models:
        treedecode.BigramScorer.load(path)
    print(cpu_seconds() - start)


if __name__ == "__main__":
    main()
