"""Desk-scale scorer implementations for exercising the decoder.

None of these look at a neural model: uniform is the null model, the
oracle teacher-forces a known target, the random scorer is a
deterministic adversary for consistency testing, and the bigram scorer
is a deliberately weak count model fitted on linearized label sequences
(it ignores the document text; that limitation is the point, it exists
so constrained-vs-unconstrained comparisons are cheap to run).
"""

from __future__ import annotations

import json
import math
from collections import Counter
from collections.abc import Iterable, Sequence
from itertools import pairwise
from pathlib import Path

from .errors import EmptyCorpusError, ModelFormatError
from .linearizer import _walk
from .taxonomy import Taxonomy
from .tokens import EOS


# Counts below 2**53 are exact as floats, and no sum of them is large enough
# for a smoothed probability to underflow to 0.
MAX_COUNT = 2**53


class UniformScorer:
    """Equal raw score (0.0) for every candidate.

    Scores never read the text, so the class declares ``reads_text = False``
    and the CLI's ``decode`` searches once per run, not once per document.
    Scores read no prefix either, but the class declares no ``markov_order``:
    a memo row costs a uniform search more than the scores it saves (one
    beam-4 search of the benchmark's flat 12x2 tree took 11.3 ms with a
    memo against 9.9 ms without, medians of 15; Python 3.11).
    """

    reads_text = False

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
        import hashlib  # here, so that importing the package does not load OpenSSL

        self.seed = seed
        self.scale = scale
        self._blake2b = hashlib.blake2b

    def _draw(self, text: str, prefix: Sequence[str], token: str) -> float:
        payload = f"{self.seed}\x1f{text}\x1f{' '.join(prefix)}\x1f{token}"
        digest = self._blake2b(payload.encode("utf-8"), digest_size=8).digest()
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
    change after construction. Scores read only ``prefix[-1]``, so the
    class declares ``markov_order = 1``, and never the text, so it declares
    ``reads_text = False``: beam search then scores each (last token,
    vocabulary) once per scorer object, whatever the number of documents
    it decodes, and the CLI's ``decode`` searches once per run, not once per
    document (see ``decoding.Scorer``). That memo leaves the rows their
    use: an unconstrained decode scores the whole alphabet once per context,
    mostly tokens never counted after it, and a row takes one logarithm per
    counted token plus one for all the rest, not one per candidate. Without
    the rows, the benchmark's ``ablation`` workload decoded 3.5% fewer
    documents per second (medians of six alternating pairs; Python 3.11,
    2 CPUs). Only the alphabet's size enters a probability, so its order
    carries no meaning. The constructor, and so ``load``, raises ModelFormatError for
    an alphabet that is empty, repeats a token or holds a non-string (add-one
    would divide by 0 or count a token twice), and for a count that is not an
    integer in [0, 2**53) or whose next token is not in the alphabet.
    """

    markov_order = 1
    reads_text = False

    def __init__(
        self,
        alphabet: Sequence[str],
        counts: dict[str, dict[str, int]],
        repaired_docs: int = 0,
    ):
        if not (
            isinstance(alphabet, (list, tuple))
            and all(isinstance(t, str) for t in alphabet)
            and 0 < len(set(alphabet)) == len(alphabet)
        ):
            raise ModelFormatError("'alphabet' must be a non-empty list of distinct strings")
        known = set(alphabet)  # next tokens only: the root is a context outside the alphabet
        if not isinstance(counts, dict) or not all(
            isinstance(row, dict)
            and known.issuperset(row)
            and all(type(n) is int and 0 <= n < MAX_COUNT for n in row.values())
            for row in counts.values()
        ):
            raise ModelFormatError("each 'counts' row must map alphabet tokens to integers in [0, 2**53)")
        self.alphabet = tuple(alphabet)
        self.counts = counts
        self.repaired_docs = repaired_docs
        self._totals = {prev: sum(nxt.values()) for prev, nxt in counts.items()}
        self._log_rows: dict[str, tuple[dict[str, float], float]] = {}

    def _add_one(self, prev: str, count: int) -> float:
        return (count + 1) / (self._totals.get(prev, 0) + len(self.alphabet))

    def probability(self, prev: str, token: str) -> float:
        return self._add_one(prev, self.counts.get(prev, {}).get(token, 0))

    def _log_row(self, prev: str) -> tuple[dict[str, float], float]:
        counted = {t: math.log(self._add_one(prev, n)) for t, n in self.counts.get(prev, {}).items()}
        return counted, math.log(self._add_one(prev, 0))

    def score(self, text, prefix, candidates):
        prev = prefix[-1]
        row = self._log_rows.get(prev)
        if row is None:
            row = self._log_rows[prev] = self._log_row(prev)
        counted, unseen = row
        return {token: counted.get(token, unseen) for token in candidates}

    def to_dict(self) -> dict:
        counts = {prev: dict(nxt) for prev, nxt in self.counts.items()}
        return {"alphabet": list(self.alphabet), "counts": counts}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(
            json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "BigramScorer":
        """Read a model written by ``save``; raises ModelFormatError on any other content."""
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except (ValueError, RecursionError) as err:  # not UTF-8 or JSON, too long an int, too deep
            raise ModelFormatError(f"{path}: not a JSON model file ({err})") from None
        if not isinstance(data, dict) or "alphabet" not in data or "counts" not in data:
            raise ModelFormatError(f"{path}: expected an object with 'alphabet' and 'counts'")
        try:
            return cls(data["alphabet"], data["counts"])
        except ModelFormatError as err:
            raise ModelFormatError(f"{path}: {err}") from None


def fit_bigram_scorer(
    tax: Taxonomy,
    corpus: Iterable[tuple[str, Iterable[str]]],
    *,
    closure: bool = False,
) -> BigramScorer:
    """Count token transitions over the canonical sequences (``linearizer._walk``) of a corpus.

    Documents are read lazily; each is walked and its transitions, terminal ``<eos>``
    included, are counted before the next is read. Inconsistent label sets are an error
    unless ``closure=True``, which repairs them with the ancestor closure (``repaired_docs``).
    """
    pairs: Counter[tuple[str, str]] = Counter()
    repaired = 0
    for _, labels in corpus:
        label_set = set(labels)
        members = tax.ancestor_closure(label_set) if closure else tax._require_labels(label_set)
        repaired += len(members) > len(label_set)
        pairs.update(pairwise([*_walk(tax, members), EOS]))
    if not pairs:  # every document adds at least the transition root -> <eos>
        raise EmptyCorpusError("cannot fit a bigram scorer on an empty corpus")
    counts: dict[str, dict[str, int]] = {}
    for (prev, nxt), n in pairs.items():
        counts.setdefault(prev, {})[nxt] = n
    return BigramScorer(tax._alphabet, counts, repaired)
