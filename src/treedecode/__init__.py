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
"""

from .corpus import DocumentRecord, read_documents, read_jsonl, write_jsonl
from .decoding import (
    DecodedSequence,
    DecoderState,
    Hypothesis,
    Scorer,
    constrained_beam_search,
    dynamic_vocabulary,
    full_alphabet,
    greedy_decode,
    initial_state,
    max_decode_length,
    restricted_log_softmax,
    restricted_softmax,
    sequence_nll,
    state_from_prefix,
    step,
    unconstrained_decode,
)
from .errors import (
    AlignmentError,
    CorpusFormatError,
    DecodeOverflowError,
    EmptyCorpusError,
    EmptyLabelSetError,
    IllegalStateError,
    IllegalTokenError,
    InconsistentLabelSetError,
    InvalidScoreError,
    InvalidSequenceError,
    InvalidTaxonomyError,
    ModelMismatchError,
    TreeDecodeError,
    UnknownLabelError,
)
from .linearizer import SequenceReport, delinearize, linearize, validate_sequence
from .metrics import (
    ConfusionCounts,
    LabelCounts,
    MetricsReport,
    confusion_counts,
    evaluate,
    macro_f1,
    micro_f1,
)
from .scorers import (
    BigramScorer,
    OracleScorer,
    RandomScorer,
    UniformScorer,
    fit_bigram_scorer,
)
from .taxonomy import (
    DatasetStats,
    Issue,
    Taxonomy,
    ValidationReport,
    dataset_stats,
    parse_taxonomy,
    validate_taxonomy,
)
from .tokens import BOS, EOS, POP, parse_sequence, render_sequence

__version__ = "0.1.0"

__all__ = [
    "AlignmentError",
    "BOS",
    "BigramScorer",
    "ConfusionCounts",
    "CorpusFormatError",
    "DatasetStats",
    "DecodeOverflowError",
    "DecodedSequence",
    "DecoderState",
    "DocumentRecord",
    "EOS",
    "EmptyCorpusError",
    "EmptyLabelSetError",
    "Hypothesis",
    "IllegalStateError",
    "IllegalTokenError",
    "InconsistentLabelSetError",
    "InvalidScoreError",
    "InvalidSequenceError",
    "InvalidTaxonomyError",
    "Issue",
    "LabelCounts",
    "MetricsReport",
    "ModelMismatchError",
    "OracleScorer",
    "POP",
    "RandomScorer",
    "Scorer",
    "SequenceReport",
    "Taxonomy",
    "TreeDecodeError",
    "UniformScorer",
    "UnknownLabelError",
    "ValidationReport",
    "confusion_counts",
    "constrained_beam_search",
    "dataset_stats",
    "delinearize",
    "dynamic_vocabulary",
    "evaluate",
    "fit_bigram_scorer",
    "full_alphabet",
    "greedy_decode",
    "initial_state",
    "linearize",
    "macro_f1",
    "max_decode_length",
    "micro_f1",
    "parse_sequence",
    "parse_taxonomy",
    "read_documents",
    "read_jsonl",
    "render_sequence",
    "restricted_log_softmax",
    "restricted_softmax",
    "sequence_nll",
    "state_from_prefix",
    "step",
    "unconstrained_decode",
    "validate_sequence",
    "validate_taxonomy",
    "write_jsonl",
]
