"""The token alphabet shared by label sequences and the decoder.

A sequence token is a plain string: either a taxonomy label, the
backtracking marker ``POP``, or the terminator ``<eos>``. ``<bos>`` is
reserved but never materialized. Reserved names can never be labels, so
plain strings are unambiguous.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence

POP = "POP"
EOS = "<eos>"
BOS = "<bos>"

RESERVED_TOKENS = frozenset({POP, EOS, BOS})


def token_sort_key(token: str) -> tuple[int, str]:
    """Deterministic tie-break order: labels lexicographically, then <eos>, then POP."""
    return (1, token) if token in RESERVED_TOKENS else (0, token)


def sequence_sort_key(tokens: Iterable[str]) -> tuple[tuple[int, str], ...]:
    """Lexicographic order over whole token sequences, using token_sort_key per slot."""
    return tuple(token_sort_key(t) for t in tokens)


def render_sequence(tokens: Sequence[str]) -> str:
    """Join tokens with single spaces, e.g. ``Root Movie POP``."""
    return " ".join(tokens)


def parse_sequence(text: str) -> list[str]:
    """Inverse of render_sequence (labels therefore cannot contain spaces)."""
    return text.split()
