"""Domain exceptions. Every error carries a stable ``code`` string for CLI reporting."""

from __future__ import annotations


class TreeDecodeError(Exception):
    """Base class for all domain errors raised by this package."""

    code = "ERROR"


class InvalidTaxonomyError(TreeDecodeError):
    """Taxonomy input violates structural invariants; ``report`` lists every issue."""

    code = "INVALID_TAXONOMY"

    def __init__(self, report):
        issues = ", ".join(f"{i.code}: {i.message}" for i in report.issues)
        super().__init__(f"invalid taxonomy ({issues})")
        self.report = report


class UnknownLabelError(TreeDecodeError):
    code = "UNKNOWN_LABEL"

    def __init__(self, label: str, context: str = ""):
        suffix = f" ({context})" if context else ""
        super().__init__(f"unknown label {label!r}{suffix}")
        self.label = label


class InconsistentLabelSetError(TreeDecodeError):
    code = "INCONSISTENT_LABELSET"


class EmptyLabelSetError(TreeDecodeError):
    code = "EMPTY_LABELSET"


class InvalidSequenceError(TreeDecodeError):
    """A token sequence broke an automaton rule at ``position`` (first violation)."""

    code = "INVALID_SEQUENCE"

    def __init__(self, position: int, issue: str, message: str = ""):
        detail = message or "invalid label sequence"
        super().__init__(f"{detail} at position {position}: {issue}")
        self.position = position
        self.issue = issue


class IllegalStateError(TreeDecodeError):
    code = "ILLEGAL_STATE"


class IllegalTokenError(TreeDecodeError):
    code = "ILLEGAL_TOKEN"


class InvalidScoreError(TreeDecodeError):
    code = "INVALID_SCORE"


class DecodeOverflowError(TreeDecodeError):
    code = "DECODE_OVERFLOW"


class EmptyCorpusError(TreeDecodeError):
    code = "EMPTY_CORPUS"


class AlignmentError(TreeDecodeError):
    code = "ALIGNMENT_ERROR"


class ModelMismatchError(TreeDecodeError):
    """A scorer model was fitted on a different token alphabet than the taxonomy's."""

    code = "MODEL_MISMATCH"


class CorpusFormatError(TreeDecodeError):
    """A corpus or predictions file record is malformed.

    Bad JSON, a missing or repeated id, labels that are not a list, or a
    sequence that is neither a string nor a list of strings.
    """

    code = "CORPUS_FORMAT"
