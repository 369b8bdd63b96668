"""Depth-first label-set linearization with POP backtracking tokens.

A consistent label set induces a subtree of the taxonomy. Serializing
that subtree depth-first, emitting each label on entry and a POP on
exit, yields a token sequence that starts at the root and is uniquely
invertible: e.g. the set {Entertainment, Movie, Documentary, Business,
Company} becomes
``Root Entertainment Movie Documentary POP POP POP Business Company POP POP``.

The root opens the sequence and is never popped; termination is the
decoder's ``<eos>``, which is not part of the stored sequence.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .errors import (
    EmptyLabelSetError,
    InconsistentLabelSetError,
    InvalidSequenceError,
    UnknownLabelError,
)
from .taxonomy import Taxonomy
from .tokens import POP

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
    for label in members:
        if label not in tax:
            raise UnknownLabelError(label)
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


def validate_sequence(tax: Taxonomy, tokens: Sequence[str], *, complete: bool = True) -> SequenceReport:
    """Replay tokens through the stack automaton and report the first violation.

    With ``complete=True`` (the stored-sequence form) the stack must also
    return to the root by the end; ``complete=False`` accepts any valid
    prefix, which is what decoder hypotheses are.
    """
    if not tokens or tokens[0] != tax.root:
        return SequenceReport(False, 0, NOT_ROOT_FIRST)
    depth = 1  # stack height; the stack bottom is always the root
    stack_top = tax.root
    parents: list[str] = []
    used: set[str] = {tax.root}
    for pos in range(1, len(tokens)):
        token = tokens[pos]
        if token == POP:
            if depth == 1:
                return SequenceReport(False, pos, POP_AT_ROOT)
            depth -= 1
            stack_top = parents.pop()
        elif token not in tax:
            return SequenceReport(False, pos, UNKNOWN_LABEL)
        elif token not in tax.children(stack_top):
            return SequenceReport(False, pos, NON_CHILD)
        elif token in used:
            return SequenceReport(False, pos, DUPLICATE_LABEL)
        else:
            parents.append(stack_top)
            stack_top = token
            used.add(token)
            depth += 1
    if complete and depth != 1:
        return SequenceReport(False, len(tokens), UNCLOSED)
    return SequenceReport(True)


def delinearize(tax: Taxonomy, tokens: Sequence[str]) -> set[str]:
    """Invert linearize: collect the labels of a valid complete sequence.

    The result never includes the root and is consistent by construction.
    Raises InvalidSequenceError at the first offending position otherwise.
    """
    report = validate_sequence(tax, tokens)
    if not report.ok:
        raise InvalidSequenceError(report.position, report.code)
    return {t for t in tokens if t != POP and t != tax.root}
