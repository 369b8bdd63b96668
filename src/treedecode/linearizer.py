"""Depth-first label-set linearization with POP backtracking tokens.

A consistent label set induces a subtree of the taxonomy. Serializing
that subtree depth-first, emitting each label on entry and a POP on
exit, yields a token sequence that starts at the root and is uniquely
invertible: e.g. the set {Entertainment, Movie, Documentary, Business,
Company} becomes
``Root Entertainment Movie Documentary POP POP POP Business Company POP POP``.

The root opens the sequence and is never popped; termination is the
decoder's ``<eos>``, which is not part of the stored sequence.

This module owns the stack automaton: its one legality rule
(``_vocabulary_parts``), its transition (``_advance_parts``) and its
replay of a sequence (``_replay``). The validator here and the decoder
in ``decoding`` both run on them, so they accept the same sequences.
"""

from __future__ import annotations

from collections.abc import Collection, Iterable, Sequence
from dataclasses import dataclass

from .errors import (
    EmptyLabelSetError,
    IllegalStateError,
    InconsistentLabelSetError,
    InvalidSequenceError,
    UnknownLabelError,
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
    Taxonomy.ancestor_closure first if leniency is wanted.
    """
    members = set(labels)
    if not members:
        raise EmptyLabelSetError("cannot linearize an empty label set")
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


def _vocabulary_parts(
    tax: Taxonomy, stack: Sequence[str], visited: Collection[str]
) -> tuple[str, ...]:
    """The dynamic vocabulary of a (stack, visited) pair in tie-break order, without a sort.

    Unvisited children of the stack top come first, by name from the
    taxonomy's precomputed table, then POP above the root or ``<eos>`` at it.
    """
    if not stack or stack[0] != tax.root:
        raise IllegalStateError(f"no vocabulary for stack {stack!r}: its bottom is not the root")
    try:
        children = tax._ordered_children[stack[-1]]
    except KeyError:
        raise UnknownLabelError(stack[-1]) from None
    return (*[c for c in children if c not in visited], POP if len(stack) > 1 else EOS)


def _advance_parts(
    stack: tuple[str, ...], visited: frozenset[str], token: str
) -> tuple[tuple[str, ...], frozenset[str]]:
    """Push a label or pop on POP; ``token`` is known to be in the vocabulary and not ``<eos>``."""
    if token == POP:
        return stack[:-1], visited
    return stack + (token,), visited | {token}


def _replay(tax: Taxonomy, tokens: Sequence[str]) -> tuple[list[str], set[str], int, str | None]:
    """Run stored-form tokens (never ``<eos>``) through the automaton up to the first illegal one.

    Returns the stack and visited labels before that token, its position
    and its violation code; ``(..., len(tokens), None)`` if all are legal.
    """
    if not tokens or tokens[0] != tax.root:
        return [], set(), 0, NOT_ROOT_FIRST
    stack = [tax.root]
    visited: set[str] = set()
    for position in range(1, len(tokens)):
        token = tokens[position]
        if token == EOS or token not in _vocabulary_parts(tax, stack, visited):
            if token == POP:
                code = POP_AT_ROOT
            elif token not in tax:
                code = UNKNOWN_LABEL
            elif tax.parent(token) != stack[-1]:
                code = NON_CHILD
            else:
                code = DUPLICATE_LABEL
            return stack, visited, position, code
        if token == POP:
            stack.pop()
        else:
            stack.append(token)
            visited.add(token)
    return stack, visited, len(tokens), None


def _labels(tax: Taxonomy, tokens: Iterable[str]) -> set[str]:
    """The label tokens of a sequence: everything but POP, ``<eos>`` and the root."""
    return set(tokens).difference((POP, EOS, tax.root))


def validate_sequence(tax: Taxonomy, tokens: Sequence[str], *, complete: bool = True) -> SequenceReport:
    """Replay tokens through the stack automaton and report the first violation.

    With ``complete=True`` (the stored-sequence form) the stack must also
    return to the root by the end; ``complete=False`` accepts any valid
    prefix, which is what decoder hypotheses are.
    """
    stack, _, position, code = _replay(tax, tokens)
    if code is not None:
        return SequenceReport(False, position, code)
    if complete and len(stack) != 1:
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
