"""The benchmark still fits the program: its traced functions and its command lines.

``perfbench/tracer.py`` patches each ``(module, attribute)`` of its ``SPANS``
table at install time, so renaming or deleting one of those functions makes
``python3 perfbench/run.py --trace 1`` end in an ``AttributeError``. Likewise
``perfbench/workloads.py`` writes the CLI command lines the benchmark runs, so
a CLI change they do not follow would make every one of those stages fail.
Both files are read, never modified.
"""

from __future__ import annotations

import importlib
import json
import types
from pathlib import Path

import pytest

from treedecode.cli import build_parser

REPO = Path(__file__).resolve().parent.parent
TRACER = REPO / "perfbench" / "tracer.py"
WORKLOADS = REPO / "perfbench" / "workloads.py"


def _exec_source(path: Path) -> types.ModuleType:
    # Executed from source into a throwaway module, so nothing is written under perfbench/.
    module = types.ModuleType(f"perfbench_{path.stem}")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    return module


def _spans() -> tuple[tuple[str, str, str], ...]:
    return _exec_source(TRACER).SPANS


def test_tracer_lists_spans():
    assert _spans()


@pytest.mark.parametrize("module_name, attribute, span", _spans())
def test_span_target_resolves(module_name, attribute, span):
    module = importlib.import_module(module_name)
    if "." in attribute:
        # The tracer patches the method found in the class's own __dict__.
        class_name, method = attribute.split(".")
        target = vars(getattr(module, class_name))[method]
        target = getattr(target, "__func__", target)
    else:
        target = getattr(module, attribute)
    assert callable(target), f"{module_name}.{attribute} (span {span}) is not callable"


@pytest.mark.parametrize(
    "workload", [entry["name"] for entry in json.loads((REPO / "BENCHMARK.json").read_text())["workloads"]]
)
def test_workload_command_lines_parse(workload, tmp_path):
    stages = _exec_source(WORKLOADS).build(workload, 0, tmp_path)
    assert stages
    for stage in stages:
        # argparse exits (SystemExit) on an option the CLI does not know.
        args = build_parser().parse_args(stage["argv"])
        assert args.command == stage["kind"]
