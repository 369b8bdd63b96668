"""Desk-scale scorer implementations for exercising the decoder.

None of these look at a neural model: uniform is the null model, the
oracle teacher-forces a known target, the random scorer is a
deterministic adversary for consistency testing, and the bigram scorer
is a deliberately weak count model fitted on linearized label sequences
(it ignores the document text; that limitation is the point, it exists
so constrained-vs-unconstrained comparisons are cheap to run).
"""

from __future__ import annotations

import hashlib
import json
import math
from collections.abc import Iterable, Sequence
from itertools import pairwise
from pathlib import Path

from .decoding import full_alphabet
from .errors import EmptyCorpusError, ModelFormatError
from .linearizer import linearize
from .taxonomy import Taxonomy
from .tokens import EOS


class UniformScorer:
    """Equal raw score (0.0) for every candidate."""

    def score(self, text, prefix, candidates):
        return {token: 0.0 for token in candidates}


class OracleScorer:
    """Teacher scorer for one target sequence.

    While the prefix tracks the target, the next target token (the
    terminal ``<eos>`` included) gets raw score ``margin`` and everything
    else 0; off-target prefixes are scored uniformly. With the default
    margin the target token dominates any realistic candidate set, so a
    width-1 beam recovers the target exactly. Margin 0 degenerates to
    the uniform scorer.
    """

    def __init__(self, target: Sequence[str], margin: float = 10.0):
        self.target = tuple(target) + (EOS,)
        self.margin = margin

    def score(self, text, prefix, candidates):
        position = len(prefix)
        on_target = tuple(prefix) == self.target[:position] and position < len(self.target)
        wanted = self.target[position] if on_target else None
        return {token: self.margin if token == wanted else 0.0 for token in candidates}


class RandomScorer:
    """Adversarial but reproducible scorer: scores are seeded hashes of the inputs.

    Unlike a stateful RNG, hashing keeps the scorer deterministic for
    fixed inputs, as the scoring contract requires.
    """

    def __init__(self, seed: int = 0, scale: float = 5.0):
        self.seed = seed
        self.scale = scale

    def _draw(self, text: str, prefix: Sequence[str], token: str) -> float:
        payload = f"{self.seed}\x1f{text}\x1f{' '.join(prefix)}\x1f{token}"
        digest = hashlib.blake2b(payload.encode("utf-8"), digest_size=8).digest()
        unit = int.from_bytes(digest, "big") / 2**64
        return (2.0 * unit - 1.0) * self.scale

    def score(self, text, prefix, candidates):
        return {token: self._draw(text, prefix, token) for token in candidates}


class BigramScorer:
    """Add-one-smoothed transition model over the token alphabet.

    Raw scores are log P(next | previous token); the document text is
    ignored. Probabilities over the full alphabet sum to 1 for every
    context before any vocabulary restriction. ``score`` fills one row of
    log probabilities per context on first use: the counted tokens plus
    one shared value for every uncounted token, each computed exactly as
    ``math.log(probability(prev, token))``. The counts are not meant to
    change after construction.
    """

    def __init__(
        self,
        alphabet: Sequence[str],
        counts: dict[str, dict[str, int]],
        repaired_docs: int = 0,
    ):
        self.alphabet = tuple(alphabet)
        self.counts = counts
        self.repaired_docs = repaired_docs
        self._totals = {prev: sum(nxt.values()) for prev, nxt in counts.items()}
        self._log_rows: dict[str, tuple[dict[str, float], float]] = {}

    def probability(self, prev: str, token: str) -> float:
        context = self.counts.get(prev, {})
        total = self._totals.get(prev, 0)
        return (context.get(token, 0) + 1) / (total + len(self.alphabet))

    def _log_row(self, prev: str) -> tuple[dict[str, float], float]:
        denominator = self._totals.get(prev, 0) + len(self.alphabet)
        context = self.counts.get(prev, {})
        counted = {token: math.log((n + 1) / denominator) for token, n in context.items()}
        return counted, math.log(1 / denominator)

    def score(self, text, prefix, candidates):
        prev = prefix[-1]
        row = self._log_rows.get(prev)
        if row is None:
            row = self._log_rows[prev] = self._log_row(prev)
        counted, unseen = row
        return {token: counted.get(token, unseen) for token in candidates}

    def to_dict(self) -> dict:
        return {
            "alphabet": list(self.alphabet),
            "counts": {
                prev: dict(sorted(nxt.items())) for prev, nxt in sorted(self.counts.items())
            },
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "BigramScorer":
        """Read a model written by ``save``; raises ModelFormatError on any other content."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ModelFormatError(f"{path}: not a JSON model file ({err})") from None
        if not isinstance(data, dict) or "alphabet" not in data or "counts" not in data:
            raise ModelFormatError(f"{path}: expected an object with 'alphabet' and 'counts'")
        alphabet, counts = data["alphabet"], data["counts"]
        if not isinstance(alphabet, list) or not all(isinstance(t, str) for t in alphabet):
            raise ModelFormatError(f"{path}: 'alphabet' must be a list of strings")
        known = set(alphabet)  # next tokens only: the root is a context outside the alphabet
        if not isinstance(counts, dict) or not all(
            isinstance(row, dict)
            and known.issuperset(row)
            and all(type(n) is int and n >= 0 for n in row.values())
            for row in counts.values()
        ):
            raise ModelFormatError(
                f"{path}: each 'counts' row must map alphabet tokens to non-negative integers"
            )
        return cls(tuple(alphabet), counts)


def fit_bigram_scorer(
    tax: Taxonomy,
    corpus: Iterable[tuple[str, Iterable[str]]],
    *,
    closure: bool = False,
) -> BigramScorer:
    """Count token transitions over the linearized gold sets of a corpus.

    Each document contributes the transitions of its canonical sequence,
    terminal ``<eos>`` included. Inconsistent label sets are an error
    unless ``closure=True``, which repairs them with the ancestor closure
    and reports how many documents needed it via ``repaired_docs``.
    """
    counts: dict[str, dict[str, int]] = {}
    repaired = 0
    for text, labels in corpus:
        label_set = set(labels)
        closed = tax.ancestor_closure(label_set) if closure else label_set
        repaired += len(closed) > len(label_set)
        sequence = linearize(tax, closed) + [EOS]
        for prev, nxt in pairwise(sequence):
            context = counts.setdefault(prev, {})
            context[nxt] = context.get(nxt, 0) + 1
    if not counts:  # every document adds at least the transition root -> <eos>
        raise EmptyCorpusError("cannot fit a bigram scorer on an empty corpus")
    return BigramScorer(full_alphabet(tax), counts, repaired)
