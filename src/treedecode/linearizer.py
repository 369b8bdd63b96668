"""Depth-first label-set linearization with POP backtracking tokens.

A consistent label set induces a subtree of the taxonomy. Serializing
that subtree depth-first, emitting each label on entry and a POP on
exit, yields a token sequence that starts at the root and is uniquely
invertible: e.g. the set {Entertainment, Movie, Documentary, Business,
Company} becomes
``Root Entertainment Movie Documentary POP POP POP Business Company POP POP``.

The root opens the sequence and is never popped; termination is the
decoder's ``<eos>``, which is not part of the stored sequence.

This module owns the stack automaton. Its state is a chain of frames,
one per open label: a frame is ``(vocabulary, frame below)``, where the
vocabulary is the tuple of tokens still legal while that label is the
stack top, in tie-break order. A label's children can only be emitted
while it is the top and it is pushed at most once, so the tuple alone
remembers which children were already emitted; no visited set is kept.
``_start_frame`` opens the root, ``_advance`` is the one transition, and
``_replay`` runs a sequence through them. The validator here and the
decoder in ``decoding`` all run on them, so they accept the same sequences.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import (
    EmptyLabelSetError,
    InconsistentLabelSetError,
    InvalidSequenceError,
)
from .taxonomy import Taxonomy
from .tokens import EOS, POP

NOT_ROOT_FIRST = "NOT_ROOT_FIRST"
NON_CHILD = "NON_CHILD"
POP_AT_ROOT = "POP_AT_ROOT"
DUPLICATE_LABEL = "DUPLICATE_LABEL"
UNKNOWN_LABEL = "UNKNOWN_LABEL"
UNCLOSED = "UNCLOSED"


@dataclass(frozen=True)
class SequenceReport:
    """First automaton violation in a token sequence, if any."""

    ok: bool
    position: int | None = None
    code: str | None = None


def linearize(tax: Taxonomy, labels: Iterable[str]) -> list[str]:
    """Serialize a consistent, non-empty label set to its canonical token sequence.

    Children are visited in taxonomy order, so the output is a canonical
    form: linearize(delinearize(q)) == q for any q this function produced.
    Inconsistent sets are rejected, not silently repaired; apply
    Taxonomy.ancestor_closure first if leniency is wanted. A label that is
    unknown or the root raises UnknownLabelError, the first in name order.
    """
    members = set(labels)
    if not members:
        raise EmptyLabelSetError("cannot linearize an empty label set")
    tax._require_all(members, tax._parent)
    if not tax.is_consistent(members):
        raise InconsistentLabelSetError(
            "label set is not closed under ancestors; apply ancestor_closure first"
        )

    # Depth-first with an explicit stack of child iterators, so depth is
    # bounded by memory rather than the interpreter's recursion limit.
    tokens = [tax.root]
    pending = [iter(tax.children(tax.root))]
    while pending:
        for child in pending[-1]:
            if child in members:
                tokens.append(child)
                pending.append(iter(tax.children(child)))
                break
        else:
            pending.pop()
            if pending:
                tokens.append(POP)
    return tokens


def _start_frame(tax: Taxonomy) -> tuple:
    """The automaton state after the root token: the root's frame, with nothing below it."""
    return tax._start[tax.root], None


def _advance(tax: Taxonomy, frame: tuple, index: int) -> tuple:
    """The frame after the token at ``index`` of ``frame``'s vocabulary (never ``<eos>``).

    POP returns the frame below; a label leaves its parent's tuple and opens its start frame.
    """
    vocab, below = frame
    token = vocab[index]
    if token == POP:
        return below
    return tax._start[token], (vocab[:index] + vocab[index + 1 :], below)


def _replay(tax: Taxonomy, tokens: Sequence[str]) -> tuple[list[str], int, str | None]:
    """Run stored-form tokens (never ``<eos>``) through the automaton up to the first illegal one.

    Returns the label stack before that token, its position and its
    violation code; ``(..., len(tokens), None)`` if all are legal.
    """
    if not tokens or tokens[0] != tax.root:
        return [], 0, NOT_ROOT_FIRST
    stack = [tax.root]
    frame = _start_frame(tax)
    for position in range(1, len(tokens)):
        token = tokens[position]
        vocab = frame[0]
        if token == EOS or token not in vocab:
            if token == POP:
                code = POP_AT_ROOT
            elif token not in tax:
                code = UNKNOWN_LABEL
            elif tax.parent(token) != stack[-1]:
                code = NON_CHILD
            else:
                code = DUPLICATE_LABEL
            return stack, position, code
        frame = _advance(tax, frame, vocab.index(token))
        if token == POP:
            stack.pop()
        else:
            stack.append(token)
    return stack, len(tokens), None


def _labels(tax: Taxonomy, tokens: Iterable[str]) -> set[str]:
    """The label tokens of a sequence: everything but POP, ``<eos>`` and the root."""
    return set(tokens).difference((POP, EOS, tax.root))


def validate_sequence(tax: Taxonomy, tokens: Sequence[str]) -> SequenceReport:
    """Replay a stored-form sequence through the stack automaton and report the first violation.

    The stack must return to the root by the end (``UNCLOSED`` otherwise);
    check a decoder prefix with ``decoding.state_from_prefix`` instead.
    """
    stack, position, code = _replay(tax, tokens)
    if code is not None:
        return SequenceReport(False, position, code)
    if len(stack) != 1:
        return SequenceReport(False, position, UNCLOSED)
    return SequenceReport(True)


def delinearize(tax: Taxonomy, tokens: Sequence[str]) -> set[str]:
    """Invert linearize: collect the labels of a valid complete sequence.

    The result never includes the root and is consistent by construction.
    Raises InvalidSequenceError at the first offending position otherwise.
    """
    report = validate_sequence(tax, tokens)
    if not report.ok:
        raise InvalidSequenceError(report.position, report.code)
    return _labels(tax, tokens)
