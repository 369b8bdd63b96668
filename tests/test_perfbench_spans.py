"""Every function the benchmark tracer wraps still exists under its listed name.

``perfbench/tracer.py`` patches each ``(module, attribute)`` of its ``SPANS``
table at install time, so renaming or deleting one of those functions makes
``python3 perfbench/run.py --trace 1`` end in an ``AttributeError``. The
tracer file is read, never modified.
"""

from __future__ import annotations

import importlib
import types
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _spans() -> tuple[tuple[str, str, str], ...]:
    # Executed from source into a throwaway module, so nothing is written under perfbench/.
    module = types.ModuleType("perfbench_tracer")
    exec(compile(TRACER.read_text(encoding="utf-8"), str(TRACER), "exec"), module.__dict__)
    return module.SPANS


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
