"""The library imports nothing outside the standard library of the running Python, and
importing it leaves out the standard modules that only slow its start."""

from __future__ import annotations

import ast
import json
import subprocess
import sys
from pathlib import Path

import pytest

from treedecode import fit_bigram_scorer, parse_taxonomy

SRC = Path(__file__).resolve().parent.parent / "src"
SOURCES = sorted((SRC / "treedecode").glob("*.py"))
TAXONOMY = SRC.parent / "demos" / "data" / "media.tsv"
CORPUS = TAXONOMY.with_name("corpus.jsonl")


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
# baseline; prints the modules each step has added to it so far. -I ignores
# PYTHONDONTWRITEBYTECODE, so -B keeps it from leaving src/treedecode/__pycache__ behind.
# The set-up step is what every decode starts with: parse the taxonomy, load the model.
COLD_START = """
import sys
baseline = set(sys.modules)
sys.path.insert(0, sys.argv[1])
added = {}
import treedecode
added["import treedecode"] = sorted(set(sys.modules) - baseline)
with open(sys.argv[2], encoding="utf-8") as taxonomy:
    treedecode.parse_taxonomy(taxonomy.read())
treedecode.BigramScorer.load(sys.argv[3])
added["set-up"] = sorted(set(sys.modules) - baseline)
import treedecode.cli
added["import treedecode.cli"] = sorted(set(sys.modules) - baseline)
treedecode.RandomScorer()
added["RandomScorer()"] = sorted(set(sys.modules) - baseline)
import json
print(json.dumps(added))
"""


def _write_model(tmp_path: Path) -> Path:
    tax = parse_taxonomy(TAXONOMY.read_text(encoding="utf-8"))
    model = tmp_path / "model.json"
    fit_bigram_scorer(tax, [("a", {"Entertainment", "Movie"}), ("b", {"Business"})]).save(model)
    return model


def _cold_start(tmp_path: Path) -> dict[str, list[str]]:
    model = _write_model(tmp_path)
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", COLD_START, str(SRC), str(TAXONOMY), str(model)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return json.loads(done.stdout)


def test_import_loads_neither_dataclasses_nor_hashlib(tmp_path):
    # dataclasses pulls in inspect, ast, dis and tokenize, and hashlib loads OpenSSL: together
    # about half of a cold import. Only RandomScorer hashes, so only building one loads hashlib.
    added = _cold_start(tmp_path)
    for step in ["import treedecode", "import treedecode.cli"]:
        assert {"dataclasses", "hashlib"}.intersection(added[step]) == set(), step
    assert "hashlib" in added["RandomScorer()"]


def test_import_loads_no_submodule_and_set_up_no_decoder(tmp_path):
    # Each module loads on the first use of one of its names, so a set-up compiles neither
    # the beam search nor the metrics nor the command line.
    added = _cold_start(tmp_path)
    assert [name for name in added["import treedecode"] if name.startswith("treedecode.")] == []
    unused = {"treedecode.decoding", "treedecode.metrics", "treedecode.cli"}
    assert unused.intersection(added["set-up"]) == set()


# Run by a fresh interpreter: one command, then its exit code and the treedecode modules loaded.
COMMAND = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from treedecode import cli
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main(sys.argv[2:])
print(json.dumps([code, sorted(name for name in sys.modules if name.startswith("treedecode."))]))
"""

# Beyond cli, corpus, errors, taxonomy and tokens, which every command loads.
COMMAND_LOADS = {
    "validate": [],
    "stats": [],
    "postprocess": [],
    "linearize": ["linearizer"],
    "delinearize": ["linearizer"],
    "fit": ["linearizer", "scorers"],
    "decode": ["decoding", "linearizer", "scorers"],
    "evaluate": ["metrics"],
}


@pytest.mark.parametrize("command", COMMAND_LOADS)
def test_a_command_loads_only_the_modules_it_runs(tmp_path, command):
    model, out = _write_model(tmp_path), str(tmp_path / "out.jsonl")
    sequences = tmp_path / "sequences.jsonl"
    sequences.write_text('{"id": "d2", "sequence": "Root Entertainment POP"}\n', encoding="utf-8")
    argv = {
        "validate": [],
        "stats": ["--split", f"train={CORPUS}"],
        "postprocess": ["--input", str(CORPUS), "--output", out],
        "linearize": ["--input", str(CORPUS), "--output", out, "--closure"],
        "delinearize": ["--input", str(sequences), "--output", out],
        "fit": ["--input", str(CORPUS), "--output", out],
        "decode": ["--input", str(CORPUS), "--output", out, "--scorer", "bigram", "--model", str(model)],
        "evaluate": ["--gold", str(CORPUS), "--predictions", str(CORPUS), "--output", out],
    }[command]
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", COMMAND, str(SRC), command, "--taxonomy", str(TAXONOMY), *argv],
        capture_output=True, text=True, timeout=60, check=True,
    )
    code, loaded = json.loads(done.stdout)
    assert code == 0
    every = ["cli", "corpus", "errors", "taxonomy", "tokens"]
    assert loaded == sorted(f"treedecode.{name}" for name in every + COMMAND_LOADS[command])
