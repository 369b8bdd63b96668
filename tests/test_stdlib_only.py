"""The library imports nothing outside the standard library of the running Python, and
importing it leaves out the standard modules that only slow its start."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "treedecode").glob("*.py"))


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


# Run by a fresh interpreter with no site hooks (-I -S), so its first modules are a bare
# baseline; prints the modules each step has added to it so far.
COLD_START = """
import sys
baseline = set(sys.modules)
sys.path.insert(0, sys.argv[1])
added = {}
import treedecode
added["import treedecode"] = sorted(set(sys.modules) - baseline)
import treedecode.cli
added["import treedecode.cli"] = sorted(set(sys.modules) - baseline)
treedecode.RandomScorer()
added["RandomScorer()"] = sorted(set(sys.modules) - baseline)
import json
print(json.dumps(added))
"""


def test_import_loads_neither_dataclasses_nor_hashlib():
    # dataclasses pulls in inspect, ast, dis and tokenize, and hashlib loads OpenSSL: together
    # about half of a cold import. Only RandomScorer hashes, so only building one loads hashlib.
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", COLD_START, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    added = json.loads(done.stdout)
    for step in ["import treedecode", "import treedecode.cli"]:
        assert {"dataclasses", "hashlib"}.intersection(added[step]) == set(), step
    assert "hashlib" in added["RandomScorer()"]
