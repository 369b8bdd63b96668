"""The flat ``treedecode`` namespace: its names, where each comes from, and how a miss fails."""

from __future__ import annotations

import importlib
import re
import subprocess
import sys
from pathlib import Path

import pytest

import treedecode

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"
SRC = PYPROJECT.parent / "src"

# Every public name, in the order of treedecode.__all__, with the module that defines it.
EXPORTS = {
    "AlignmentError": "errors",
    "BOS": "tokens",
    "BigramScorer": "scorers",
    "ConfusionCounts": "metrics",
    "CorpusFormatError": "errors",
    "DatasetStats": "taxonomy",
    "DecodeOverflowError": "errors",
    "DecodedSequence": "decoding",
    "DecoderState": "decoding",
    "DocumentRecord": "corpus",
    "EOS": "tokens",
    "EmptyCorpusError": "errors",
    "IllegalStateError": "errors",
    "IllegalTokenError": "errors",
    "InconsistentLabelSetError": "errors",
    "InvalidScoreError": "errors",
    "InvalidSequenceError": "errors",
    "InvalidTaxonomyError": "errors",
    "Issue": "taxonomy",
    "LabelCounts": "metrics",
    "MetricsReport": "metrics",
    "ModelFormatError": "errors",
    "ModelMismatchError": "errors",
    "OracleScorer": "scorers",
    "POP": "tokens",
    "RandomScorer": "scorers",
    "Scorer": "decoding",
    "SequenceReport": "linearizer",
    "Taxonomy": "taxonomy",
    "TreeDecodeError": "errors",
    "UniformScorer": "scorers",
    "UnknownLabelError": "errors",
    "ValidationReport": "taxonomy",
    "confusion_counts": "metrics",
    "constrained_beam_search": "decoding",
    "dataset_stats": "taxonomy",
    "delinearize": "linearizer",
    "dynamic_vocabulary": "decoding",
    "evaluate": "metrics",
    "fit_bigram_scorer": "scorers",
    "full_alphabet": "decoding",
    "greedy_decode": "decoding",
    "initial_state": "decoding",
    "linearize": "linearizer",
    "macro_f1": "metrics",
    "max_decode_length": "decoding",
    "micro_f1": "metrics",
    "parse_sequence": "tokens",
    "parse_taxonomy": "taxonomy",
    "read_documents": "corpus",
    "read_jsonl": "corpus",
    "render_sequence": "tokens",
    "restricted_log_softmax": "decoding",
    "restricted_softmax": "decoding",
    "sequence_nll": "decoding",
    "state_from_prefix": "decoding",
    "step": "decoding",
    "unconstrained_decode": "decoding",
    "validate_sequence": "linearizer",
    "validate_taxonomy": "taxonomy",
    "write_jsonl": "corpus",
}


def test_all_lists_every_public_name_in_order():
    assert len(EXPORTS) == 61
    assert treedecode.__all__ == list(EXPORTS)


@pytest.mark.parametrize("name", EXPORTS)
def test_each_name_is_the_object_its_module_defines(name):
    module = importlib.import_module(f"treedecode.{EXPORTS[name]}")
    assert getattr(treedecode, name) is getattr(module, name)


def test_star_import_and_dir_cover_every_name():
    namespace: dict = {}
    exec("from treedecode import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(EXPORTS)
    assert set(EXPORTS) <= set(dir(treedecode))


def test_an_unknown_name_fails_as_a_missing_attribute():
    with pytest.raises(AttributeError, match=r"^module 'treedecode' has no attribute 'nope'$"):
        treedecode.nope
    assert not hasattr(treedecode, "nope")
    with pytest.raises(ImportError, match="nope"):
        exec("from treedecode import nope", {})


def test_submodules_still_import_by_name():
    namespace: dict = {}
    exec("from treedecode import cli", namespace)
    assert namespace["cli"] is importlib.import_module("treedecode.cli")


def test_each_defining_module_resolves_right_after_a_bare_import():
    # A fresh interpreter (-I -S -B), so no earlier import in this process has bound a submodule.
    script = (
        "import sys; sys.path.insert(0, sys.argv[1]); import treedecode\n"
        "for name in sorted(set(sys.argv[2:])):\n"
        "    assert getattr(treedecode, name) is sys.modules['treedecode.' + name], name\n"
        "    assert name in dir(treedecode), name\n"
    )
    subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c", script, str(SRC), *EXPORTS.values()],
        capture_output=True, text=True, timeout=60, check=True,
    )


def test_version_matches_the_project_metadata():
    version = re.search(r'^version = "([^"]+)"$', PYPROJECT.read_text(encoding="utf-8"), re.M)
    assert treedecode.__version__ == version.group(1)
