"""Constrained decoding over the taxonomy automaton.

The decoder walks the same stack automaton that linearization uses. At
every step the set of legal next tokens (the dynamic vocabulary) is:

* the stack top's children that have not been emitted anywhere earlier
  in the sequence (labels are never generated twice),
* plus POP whenever the stack holds more than the root,
* plus ``<eos>`` exactly when the stack is back down to the root.

The vocabulary is never empty: once every child of the root has been
visited and the stack is at the root, only ``<eos>`` remains. Raw scores
from a pluggable scorer are normalized with a softmax over just this
vocabulary, which is what guarantees that any decoded label set is
consistent no matter how adversarial the scorer is.

The root token opens every sequence deterministically and carries no
probability mass.

Beam search ranks hypotheses by ``(-logprob, lexicographic tokens)``,
comparing tokens with ``token_sort_key`` (labels by name, then ``<eos>``,
then POP), so results are deterministic under exact ties. Each active
hypothesis's vocabulary is derived once per step, already in that order:
the taxonomy sorts every node's children by name when it is built, so
the unvisited children come out sorted and POP or ``<eos>`` follows them.

A step is list arithmetic over that vocabulary tuple. The scorer's
mapping is read once into a list aligned with the tuple, and one list
kernel (``_log_softmax``) turns it into log probabilities; the public
``restricted_log_softmax`` and ``sequence_nll`` use the same kernel.
Active hypotheses travel as plain ``(logprob, tokens, stack, visited)``
tuples, advanced by the same parts-level transition that ``step`` wraps;
``Hypothesis`` and ``DecoderState`` objects are built only for banked
results. A step costs O(beam * |V|) to score and rank the expansions with
constant-size keys; only the ``beam_width`` survivors are built, each with
one prefix copy, and they advance without deriving the vocabulary again.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Collection, Mapping, Sequence
from dataclasses import dataclass
from operator import itemgetter
from typing import Protocol

from .errors import (
    DecodeOverflowError,
    IllegalStateError,
    IllegalTokenError,
    InvalidScoreError,
    InvalidSequenceError,
    UnknownLabelError,
)
from .linearizer import validate_sequence
from .taxonomy import Taxonomy
from .tokens import EOS, POP, sequence_sort_key, token_sort_key


class Scorer(Protocol):
    """Next-token scoring contract standing in for a learned model.

    Given the document text, the already-generated token prefix (root
    anchor included) and a candidate set, return a finite raw score for
    every candidate; higher means more likely. Scores need not be
    normalized, must be deterministic for fixed inputs, and must not
    depend on tokens outside the supplied candidate set. Returning
    scores for extra tokens is allowed; the decoder masks the mapping
    down to the candidates.
    """

    def score(
        self, text: str, prefix: Sequence[str], candidates: Sequence[str]
    ) -> Mapping[str, float]: ...


@dataclass(frozen=True)
class DecoderState:
    """Automaton state after consuming a token prefix.

    The stack bottom is always the root; ``visited`` holds every
    non-root label emitted so far; ``terminal`` marks that ``<eos>`` was
    consumed and no further step is legal.
    """

    stack: tuple[str, ...]
    visited: frozenset[str]
    terminal: bool = False


@dataclass(frozen=True)
class Hypothesis:
    """A partial decode: token prefix, automaton state, accumulated log probability.

    ``state`` is None in unconstrained decoding, which has no automaton.
    """

    tokens: tuple[str, ...]
    state: DecoderState | None
    logprob: float


@dataclass(frozen=True)
class DecodedSequence:
    """A finished decode in stored form: no ``<eos>``, root token first.

    ``logprob`` does include the terminal ``<eos>`` step. ``labels`` is
    the raw set of label tokens emitted (for constrained decoding this
    equals delinearize of ``tokens`` and is consistent by construction;
    for unconstrained decoding it may not be).
    """

    tokens: tuple[str, ...]
    labels: frozenset[str]
    logprob: float

    def to_dict(self, doc_id: str) -> dict:
        return {
            "id": doc_id,
            "sequence": list(self.tokens),
            "labels": sorted(self.labels),
            "logprob": self.logprob,
        }


def initial_state(tax: Taxonomy) -> DecoderState:
    """State after the forced root token."""
    return DecoderState(stack=(tax.root,), visited=frozenset())


def _vocabulary_parts(
    tax: Taxonomy, stack: tuple[str, ...], visited: Collection[str]
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


def _vocabulary(tax: Taxonomy, state: DecoderState) -> tuple[str, ...]:
    """The dynamic vocabulary of ``state`` in tie-break order; none after ``<eos>``."""
    if state.terminal:
        raise IllegalStateError(f"no vocabulary for state {state!r}")
    return _vocabulary_parts(tax, state.stack, state.visited)


def _advance(state: DecoderState, token: str) -> DecoderState:
    """The transition for a token already known to be in ``state``'s vocabulary."""
    if token == EOS:
        return DecoderState(state.stack, state.visited, terminal=True)
    return DecoderState(*_advance_parts(state.stack, state.visited, token))


def dynamic_vocabulary(tax: Taxonomy, state: DecoderState) -> frozenset[str]:
    """Legal next tokens for ``state``; see the module docstring for the rule."""
    return frozenset(_vocabulary(tax, state))


def step(tax: Taxonomy, state: DecoderState, token: str) -> DecoderState:
    """Advance the automaton by one token drawn from its dynamic vocabulary."""
    vocab = _vocabulary(tax, state)
    if token not in vocab:
        raise IllegalTokenError(f"token {token!r} not in dynamic vocabulary {sorted(vocab)}")
    return _advance(state, token)


def state_from_prefix(tax: Taxonomy, tokens: Sequence[str]) -> DecoderState:
    """Replay a whole prefix (root first) into its automaton state."""
    if not tokens or tokens[0] != tax.root:
        raise InvalidSequenceError(0, "NOT_ROOT_FIRST", "prefix must start with the root token")
    state = initial_state(tax)
    for token in tokens[1:]:
        state = step(tax, state, token)
    return state


def _log_softmax(tokens: Sequence[str], values: Sequence[float]) -> list[float]:
    """Log-softmax of ``values``, the raw scores of ``tokens``, as a list aligned with both.

    Numerically stable (max-shifted), hence exactly invariant under
    adding a constant to all scores. A singleton yields log probability
    0.0 exactly. This is the only softmax: the public wrappers, the beam
    and ``sequence_nll`` all run through it.
    """
    if not tokens:
        raise IllegalStateError("empty dynamic vocabulary")
    # A sum is finite when every term is; only a non-finite sum (or an
    # overflow of finite terms) needs the scan that names the culprit.
    if not math.isfinite(sum(values)):
        for token, value in zip(tokens, values):
            if not math.isfinite(value):
                raise InvalidScoreError(f"non-finite score {value!r} for token {token!r}")
    # Work on max-relative logits only; absolute score levels never enter,
    # which is what makes constant shifts drop out exactly.
    if len(values) == 1:
        return [0.0]
    peak = max(values)
    relative = [value - peak for value in values]
    log_norm = math.log(math.fsum(map(math.exp, relative)))
    return [r - log_norm for r in relative]


def restricted_log_softmax(
    raw_scores: Mapping[str, float], vocab: Collection[str]
) -> dict[str, float]:
    """Log-softmax over exactly the vocabulary entries; see ``_log_softmax``."""
    tokens = list(vocab)
    # An empty vocabulary is the kernel's error, whatever the scores cover.
    if tokens and set(raw_scores) != set(tokens):
        raise InvalidScoreError(
            f"scores cover {sorted(raw_scores)} but vocabulary is {sorted(tokens)}"
        )
    return dict(zip(tokens, _log_softmax(tokens, [raw_scores[t] for t in tokens])))


def restricted_softmax(
    raw_scores: Mapping[str, float], vocab: Collection[str]
) -> dict[str, float]:
    """Probabilities over the vocabulary: positive, order-preserving, summing to 1."""
    return {t: math.exp(lp) for t, lp in restricted_log_softmax(raw_scores, vocab).items()}


def _masked_log_probs(
    scorer: Scorer, text: str, prefix: tuple[str, ...], candidates: Sequence[str]
) -> list[float]:
    """Restricted log probabilities of ``candidates``, as a list aligned with them."""
    raw = scorer.score(text, prefix, candidates)
    try:
        values = list(map(raw.__getitem__, candidates))
    except KeyError as missing:
        raise InvalidScoreError(f"scorer returned no score for candidate {missing}") from None
    return _log_softmax(candidates, values)


def sequence_nll(tax: Taxonomy, scorer: Scorer, text: str, gold: Sequence[str]) -> float:
    """Negative log likelihood of a stored gold sequence under the scorer.

    Factorizes over steps: each token's probability comes from the
    restricted softmax over that step's dynamic vocabulary, the terminal
    ``<eos>`` step included. The forced root contributes 0, so forced
    (singleton-vocabulary) paths cost exactly 0.
    """
    report = validate_sequence(tax, gold)
    if not report.ok:
        raise InvalidSequenceError(report.position, report.code, "gold sequence is invalid")
    state = initial_state(tax)
    prefix = (tax.root,)
    total = 0.0
    for token in tuple(gold[1:]) + (EOS,):
        vocab = _vocabulary(tax, state)
        total -= _masked_log_probs(scorer, text, prefix, vocab)[vocab.index(token)]
        state = _advance(state, token)
        prefix = prefix + (token,)
    return total


def max_decode_length(tax: Taxonomy) -> int:
    """Token budget per decode: the longest valid sequence plus <eos> slack."""
    return 2 * len(tax) + 2


def _beam(
    tax: Taxonomy, scorer: Scorer, text: str, beam_width: int, constrained: bool
) -> list[Hypothesis]:
    """The beam loop of both decode modes; returns the banked hypotheses, best first.

    An active hypothesis is a plain ``(logprob, tokens, stack, visited)``
    tuple (stack and visited are None in unconstrained mode); a
    ``Hypothesis`` and its ``DecoderState`` are built only when it is
    banked. ``active`` is kept in lexicographic token order. Its hypotheses
    all have the same length, and each step's candidates come in
    ``token_sort_key`` order, so an expansion's full key ``(-logprob,
    sequence_sort_key(tokens))`` orders exactly like ``(-logprob, parent
    rank, candidate index)``. Only the ``beam_width`` smallest of those
    short keys become hypotheses; re-sorting them by (parent rank, index)
    gives the next step's ranks. A survivor's token comes from the
    vocabulary its parent was just scored over, so it advances without a
    second check. Banked hypotheses differ in length, so each gets its full
    key once, when it is banked.
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    limit = max_decode_length(tax)
    if constrained:
        start = initial_state(tax)
        active = [(0.0, (tax.root,), start.stack, start.visited)]
    else:
        candidates = full_alphabet(tax)
        active = [(0.0, (tax.root,), None, None)]
    banked: list[tuple[tuple, Hypothesis]] = []  # ((-logprob, sequence_sort_key), hyp)
    while active:
        if constrained and len(active[0][1]) >= limit:
            raise DecodeOverflowError(
                f"no <eos> within {limit} tokens; taxonomy has {len(tax)} nodes"
            )
        vocabularies = []  # the candidates of each active hypothesis, by rank
        expansions = []  # (-logprob, parent rank, candidate index)
        for rank, (logprob, tokens, stack, visited) in enumerate(active):
            if constrained:
                candidates = _vocabulary_parts(tax, stack, visited)
            vocabularies.append(candidates)
            log_probs = _masked_log_probs(scorer, text, tokens, candidates)
            expansions += [(-(logprob + lp), rank, index) for index, lp in enumerate(log_probs)]
        survivors = heapq.nsmallest(beam_width, expansions)
        survivors.sort(key=itemgetter(1, 2))
        parents, active = active, []
        for negative, rank, index in survivors:
            _, tokens, stack, visited = parents[rank]
            token = vocabularies[rank][index]
            tokens += (token,)
            if token == EOS or (not constrained and len(tokens) >= limit):
                state = _advance(DecoderState(stack, visited), token) if constrained else None
                hyp = Hypothesis(tokens, state, -negative)
                banked.append(((negative, sequence_sort_key(tokens)), hyp))
            elif constrained:
                active.append((-negative, tokens, *_advance_parts(stack, visited, token)))
            else:
                active.append((-negative, tokens, None, None))
        banked.sort(key=itemgetter(0))
        del banked[beam_width:]
        if (
            len(banked) == beam_width
            and active
            and max([hyp[0] for hyp in active]) < banked[-1][1].logprob
        ):
            break
    return [hyp for _, hyp in banked]


def _decoded(tax: Taxonomy, hyp: Hypothesis) -> DecodedSequence:
    stored = hyp.tokens[:-1] if hyp.tokens[-1] == EOS else hyp.tokens
    labels = frozenset(t for t in stored if t != POP and t != tax.root)
    return DecodedSequence(stored, labels, hyp.logprob)


def constrained_beam_search(
    tax: Taxonomy, scorer: Scorer, text: str, beam_width: int = 4
) -> list[DecodedSequence]:
    """Beam search where each expansion is limited to the dynamic vocabulary.

    Hypotheses that emit ``<eos>`` inside a step's top-``beam_width`` cut
    are banked as complete and stop holding beam slots. Log probabilities
    only decrease as tokens are appended, so the search ends once
    ``beam_width`` completes are banked and no active hypothesis can
    still beat the worst of them (ties keep searching so tie-breaks stay
    lexicographic), when no active hypotheses remain, or at the length
    budget, which raises DecodeOverflowError. Returns up to
    ``beam_width`` banked hypotheses, best first. Every result passes
    sequence validation, so the top label set is consistent for any
    scorer.
    """
    return [_decoded(tax, hyp) for hyp in _beam(tax, scorer, text, beam_width, constrained=True)]


def greedy_decode(tax: Taxonomy, scorer: Scorer, text: str) -> DecodedSequence:
    """Beam width 1: follow the argmax token at every step."""
    return constrained_beam_search(tax, scorer, text, beam_width=1)[0]


def full_alphabet(tax: Taxonomy) -> tuple[str, ...]:
    """Every candidate token: non-root labels plus POP and <eos>, in tie-break order."""
    return tuple(sorted(tax.labels, key=token_sort_key)) + (EOS, POP)


def unconstrained_decode(
    tax: Taxonomy, scorer: Scorer, text: str, beam_width: int = 4
) -> DecodedSequence:
    """Ablation baseline: softmax over the full alphabet, no validity filter.

    The root still anchors the sequence, but any label (or POP) may
    follow anything, labels may repeat, and hypotheses finish at ``<eos>``
    or the length budget (no overflow error here; truncation is part of
    the baseline's contract). The decoded label set is every label token
    emitted and is NOT guaranteed consistent. The banking and stop rules
    are those of constrained_beam_search; the best banked hypothesis is
    returned.
    """
    return _decoded(tax, _beam(tax, scorer, text, beam_width, constrained=False)[0])
