"""The library imports nothing outside the standard library of the running Python."""

from __future__ import annotations

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "treedecode").glob("*.py"))


def _absolute_imports(path: Path) -> set[str]:
    """Top-level module names of every absolute import in one source file."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Import):
            names.update(alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.partition(".")[0])
    return names


def test_every_library_import_is_standard_library():
    assert SOURCES, "no library sources found"
    outside = {
        path.name: sorted(_absolute_imports(path) - sys.stdlib_module_names) for path in SOURCES
    }
    assert {name: mods for name, mods in outside.items() if mods} == {}


def test_the_check_sees_a_third_party_import(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text("import json\nimport numpy.linalg\nfrom yaml import safe_load\nfrom . import errors\n")
    assert _absolute_imports(source) - sys.stdlib_module_names == {"numpy", "yaml"}
