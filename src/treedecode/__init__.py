"""Taxonomy-constrained sequence decoding for hierarchical multi-label classification.

The pieces, bottom up: :mod:`treedecode.taxonomy` holds the rooted label
tree and label-set queries; :mod:`treedecode.linearizer` converts
between consistent label sets and depth-first token sequences with POP
backtracking; :mod:`treedecode.decoding` restricts beam search to the
dynamic vocabulary of legal next tokens so every decoded label set is
consistent; :mod:`treedecode.scorers` provides pluggable scoring models
at desk scale; :mod:`treedecode.metrics` computes Micro/Macro F1 and
their path-constrained variants; :mod:`treedecode.cli` is the
``treedecode`` command.

``import treedecode`` imports none of these modules (PEP 562). A public
name binds on first use: the first ``treedecode.<name>`` or ``from
treedecode import <name>`` imports the module that defines it and stores
that object in this package, so later uses read it directly and keep it
even if the module's own binding changes afterwards. A module that
defines public names resolves the same way, so ``treedecode.metrics``
works right after ``import treedecode``. ``dir(treedecode)`` lists every
public name, and ``from treedecode import *`` loads them all.
"""

import importlib

__version__ = "0.1.0"

# The module that defines each public name.
_EXPORTS = {
    "corpus": ("DocumentRecord", "read_documents", "read_jsonl", "write_jsonl"),
    "decoding": (
        "DecodedSequence", "DecoderState", "Scorer", "constrained_beam_search",
        "dynamic_vocabulary", "full_alphabet", "greedy_decode", "initial_state",
        "max_decode_length", "restricted_log_softmax", "restricted_softmax", "sequence_nll",
        "state_from_prefix", "step", "unconstrained_decode",
    ),
    "errors": (
        "AlignmentError", "CorpusFormatError", "DecodeOverflowError", "EmptyCorpusError",
        "IllegalStateError", "IllegalTokenError", "InconsistentLabelSetError",
        "InvalidScoreError", "InvalidSequenceError", "InvalidTaxonomyError", "ModelFormatError",
        "ModelMismatchError", "TreeDecodeError", "UnknownLabelError",
    ),
    "linearizer": ("SequenceReport", "delinearize", "linearize", "validate_sequence"),
    "metrics": (
        "ConfusionCounts", "LabelCounts", "MetricsReport", "confusion_counts", "evaluate",
        "macro_f1", "micro_f1",
    ),
    "scorers": (
        "BigramScorer", "OracleScorer", "RandomScorer", "UniformScorer", "fit_bigram_scorer",
    ),
    "taxonomy": (
        "DatasetStats", "Issue", "Taxonomy", "ValidationReport", "dataset_stats",
        "parse_taxonomy", "validate_taxonomy",
    ),
    "tokens": ("BOS", "EOS", "POP", "parse_sequence", "render_sequence"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Python calls this only for a name missing from the package's globals.
    if name in _EXPORTS:  # importing a submodule binds it in this package
        return importlib.import_module(f".{name}", __name__)
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = globals()[name] = getattr(importlib.import_module(f".{module}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _EXPORTS.keys() | _MODULE_OF.keys())
