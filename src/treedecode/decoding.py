"""Constrained decoding over the taxonomy automaton.

The decoder walks the stack automaton whose rule, transition and replay
live in ``linearizer``, beside the validator. At every step the set of
legal next tokens (the dynamic vocabulary) is:

* the stack top's children that have not been emitted anywhere earlier
  in the sequence (labels are never generated twice),
* plus POP whenever the stack holds more than the root,
* plus ``<eos>`` exactly when the stack is back down to the root.

The vocabulary is never empty: once every child of the root has been
visited and the stack is at the root, only ``<eos>`` remains. Raw scores
from a pluggable scorer are normalized with a softmax over just this
vocabulary, which is what guarantees that any decoded label set is
consistent no matter how adversarial the scorer is. The root token opens
every sequence deterministically and carries no probability mass.

Each rule is stated once, where it is kept: the scorer contract, forced
steps and the ``markov_order`` and ``reads_text`` promises in ``Scorer``;
the softmax and its tied rows in ``_log_softmax``, the one kernel behind
``restricted_log_softmax``, ``sequence_nll`` and the beam; ranking, the
memo and the hypothesis layout in ``_beam`` and ``_memo_picks``; banking
and stopping in ``constrained_beam_search``. The beam holds automaton
frames (see ``linearizer``); the public ``DecoderState`` keeps the stack
and visited labels instead, which frames cannot give back.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Collection, Mapping, Sequence
from operator import itemgetter
from typing import NamedTuple, Protocol

from .errors import (
    DecodeOverflowError,
    IllegalStateError,
    IllegalTokenError,
    InvalidScoreError,
    InvalidSequenceError,
)
from .linearizer import _advance, _labels, _replay, _start_frame, validate_sequence
from .taxonomy import Taxonomy
from .tokens import EOS, POP, sequence_sort_key  # noqa: F401 (unused; the benchmark's tracer patches it)


class Scorer(Protocol):
    """Next-token scoring contract standing in for a learned model.

    Given the document text, the already-generated token prefix (root
    anchor included) and a candidate set, return a finite raw score for
    every candidate; higher means more likely. Scores need not be
    normalized, must be deterministic for fixed inputs, and must not
    depend on tokens outside the supplied candidate set. Scores for extra
    tokens are ignored; a candidate without a score is an
    InvalidScoreError.

    A scorer is asked only where there is a choice: a step whose
    vocabulary holds one token is forced, takes that token at log
    probability 0.0 and calls no scorer, in the beam and in
    ``sequence_nll``. So ``score`` always gets two or more candidates,
    and a scorer that could not score a lone candidate fails no decode.

    The optional class attribute ``markov_order = 1`` promises that scores
    depend only on ``text``, ``prefix[-1]`` and ``candidates``: beam search
    then scores each (last token, vocabulary) once per decode. Without it,
    or with another value, every hypothesis is scored at every step. The
    optional class attribute ``reads_text = False`` promises that scores do
    not depend on ``text``, so every text gets the same search: the CLI's
    ``decode`` then searches once per run, on its first document, and
    writes that result for every document.
    """

    def score(
        self, text: str, prefix: Sequence[str], candidates: Sequence[str]
    ) -> Mapping[str, float]: ...


class DecoderState(NamedTuple):
    """Automaton state after consuming a token prefix.

    The stack bottom is always the root; ``visited`` holds every
    non-root label emitted so far; ``terminal`` marks that ``<eos>`` was
    consumed and no further step is legal.
    """

    stack: tuple[str, ...]
    visited: frozenset[str]
    terminal: bool = False


class DecodedSequence(NamedTuple):
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


def _vocabulary(tax: Taxonomy, state: DecoderState) -> tuple[str, ...]:
    """The stack top's start vocabulary less the visited labels; none after ``<eos>``."""
    if state.terminal or not state.stack or state.stack[0] != tax.root:
        raise IllegalStateError(f"no vocabulary for state {state!r}")
    tax._require(state.stack[-1])
    return tuple([t for t in tax._start[state.stack[-1]] if t not in state.visited])


def dynamic_vocabulary(tax: Taxonomy, state: DecoderState) -> frozenset[str]:
    """Legal next tokens for ``state``; see the module docstring for the rule."""
    return frozenset(_vocabulary(tax, state))


def step(tax: Taxonomy, state: DecoderState, token: str) -> DecoderState:
    """Advance the automaton by one token drawn from its dynamic vocabulary."""
    vocab = _vocabulary(tax, state)
    if token not in vocab:
        raise IllegalTokenError(f"token {token!r} not in dynamic vocabulary {sorted(vocab)}")
    if token == EOS:
        return state._replace(terminal=True)
    if token == POP:
        return DecoderState(state.stack[:-1], state.visited)
    return DecoderState(state.stack + (token,), state.visited | {token})


def state_from_prefix(tax: Taxonomy, tokens: Sequence[str]) -> DecoderState:
    """Replay a whole stored-form prefix (root first, no ``<eos>``) into its automaton state.

    Raises InvalidSequenceError at the first token the automaton rejects.
    """
    stack, position, code = _replay(tax, tokens)
    if code is not None:
        raise InvalidSequenceError(position, code, "invalid prefix")
    return DecoderState(tuple(stack), frozenset(_labels(tax, tokens)))


def _log_softmax(raw: Mapping[str, float], tokens: Sequence[str]) -> list[float]:
    """Log-softmax of the raw scores of ``tokens``, as a list aligned with them.

    Each token's score is read from ``raw``; other keys are ignored, and a
    token without a score is an InvalidScoreError. Numerically stable
    (max-shifted), hence exactly invariant under adding a constant to all
    scores. A row of n equal finite scores, a singleton included, yields
    ``0.0 - log(n)`` for each token without taking exponentials: bit for
    bit what the general formula gives, since each relative score is 0.0
    and the sum of their exponentials is ``float(n)``; a singleton gets
    +0.0. This is the only softmax: ``restricted_log_softmax``, the beam
    and ``sequence_nll`` all run through it, and only the first passes it
    a singleton (the other two take a forced step without a score).
    """
    if not tokens:
        raise IllegalStateError("empty dynamic vocabulary")
    try:
        values = list(map(raw.__getitem__, tokens))
    except KeyError as missing:
        raise InvalidScoreError(f"no score for token {missing}") from None
    # A sum is finite when every term is; only a non-finite sum (or an
    # overflow of finite terms) needs the scan that names the culprit.
    if not math.isfinite(sum(values)):
        for token, value in zip(tokens, values):
            if not math.isfinite(value):
                raise InvalidScoreError(f"non-finite score {value!r} for token {token!r}")
    # Work on max-relative logits only; absolute score levels never enter,
    # which is what makes constant shifts drop out exactly.
    peak = max(values)
    if min(values) == peak:
        # A tied row: each relative score is 0.0, exp gives 1.0 and fsum
        # float(n), so the formula below yields 0.0 - log(n) for every token
        # (+0.0 for a singleton, where -log(1) would be -0.0).
        return [0.0 - math.log(len(values))] * len(values)
    relative = [value - peak for value in values]
    log_norm = math.log(math.fsum(map(math.exp, relative)))
    return [r - log_norm for r in relative]


def restricted_log_softmax(
    raw_scores: Mapping[str, float], vocab: Collection[str]
) -> dict[str, float]:
    """Log-softmax over the vocabulary entries, which must not repeat; see ``_log_softmax``."""
    tokens = list(vocab)
    if len(set(tokens)) < len(tokens):
        repeated = next(t for i, t in enumerate(tokens) if t in tokens[:i])
        raise IllegalStateError(f"token {repeated!r} repeats in the vocabulary")
    return dict(zip(tokens, _log_softmax(raw_scores, tokens)))


def restricted_softmax(
    raw_scores: Mapping[str, float], vocab: Collection[str]
) -> dict[str, float]:
    """Probabilities over the vocabulary: positive, order-preserving, summing to 1."""
    return {t: math.exp(lp) for t, lp in restricted_log_softmax(raw_scores, vocab).items()}


def sequence_nll(tax: Taxonomy, scorer: Scorer, text: str, gold: Sequence[str]) -> float:
    """Negative log likelihood of a stored gold sequence under the scorer.

    Factorizes over steps: each token's probability comes from the
    restricted softmax over that step's dynamic vocabulary, the terminal
    ``<eos>`` step included. The forced root contributes 0, and so does
    every forced step (see ``Scorer``), as in the beam.
    """
    report = validate_sequence(tax, gold)
    if not report.ok:
        raise InvalidSequenceError(report.position, report.code, "gold sequence is invalid")
    frame = _start_frame(tax)
    total = 0.0
    for end, token in enumerate([*gold[1:], EOS], start=1):
        vocab = frame[0]
        index = vocab.index(token)
        if len(vocab) > 1:  # a forced step costs 0.0 and asks the scorer nothing
            total -= _log_softmax(scorer.score(text, tuple(gold[:end]), vocab), vocab)[index]
        if token != EOS:
            frame = _advance(tax, frame, index)
    return total


def max_decode_length(tax: Taxonomy) -> int:
    """Token budget per decode: the longest valid sequence plus <eos> slack."""
    return 2 * len(tax) + 2


def _memo_picks(row: tuple, logprob: float, beam_width: int) -> list[int]:
    """The indices of a memo row ``(log_probs, order)`` that can survive a step, in index order.

    Any other index has ``beam_width`` candidates of the same parent ahead of it, so it never survives.
    """
    log_probs, order = row
    # Past the beam_width-th, keep each index whose total rounds to the same float: it may win that tie.
    cut, floor = beam_width, logprob + log_probs[order[min(beam_width, len(order)) - 1]]
    while cut < len(order) and logprob + log_probs[order[cut]] == floor:
        cut += 1
    return sorted(order[:cut])


def _beam(
    tax: Taxonomy, scorer: Scorer, text: str, beam_width: int, constrained: bool
) -> list[DecodedSequence]:
    """The beam loop of both decode modes; returns the banked results, best first.

    An active hypothesis is a plain ``(logprob, tokens, frame)`` tuple, the
    frame being its automaton state from ``linearizer``; in unconstrained
    mode every hypothesis shares one frame whose vocabulary is the full
    alphabet and which never advances. A banked hypothesis is a
    ``(key, tokens)`` pair, and only the final bank is turned into
    ``DecodedSequence`` objects. ``active`` is kept in lexicographic token
    order. Its hypotheses all have the same length, and each step's
    candidates come in tie-break order, so an expansion's full key
    ``(-logprob, ranks)``, its tokens mapped through the taxonomy's rank
    table (built once from ``token_sort_key``), orders exactly like
    ``(-logprob, parent rank, candidate index)``: the float totals are laid
    out in that order and sorted stably by total alone (a memo row lays
    out only what ``_memo_picks`` keeps, and a forced step one total, its
    parent's log probability, with no scorer call). The ``beam_width`` best
    positions, re-sorted, give the next step's ranks; a bisect of the
    parents' first positions finds each one's parent. A survivor's token
    comes from the vocabulary its parent was just expanded over, so it
    advances without a second check. Banked hypotheses differ in length, so
    each gets its full key once, when it is banked.
    """
    if beam_width < 1:
        raise ValueError(f"beam_width must be >= 1, got {beam_width}")
    limit = max_decode_length(tax)
    # (last token, vocabulary) -> (log probs, order): an order-1 scorer's rows, for this decode only.
    memo = {} if getattr(scorer, "markov_order", None) == 1 else None
    frame = _start_frame(tax) if constrained else (full_alphabet(tax), None)
    active = [(0.0, (tax.root,), frame)]
    banked: list[tuple[tuple, tuple[str, ...]]] = []  # ((-logprob, token ranks), tokens)
    while active:
        if constrained and len(active[0][1]) >= limit:
            raise DecodeOverflowError(
                f"no <eos> within {limit} tokens; taxonomy has {len(tax)} nodes"
            )
        totals: list[float] = []  # every parent's candidate totals, in (parent rank, index) order
        starts, picks = [], []  # per parent rank: its first total's position, its totals' vocabulary indices
        for logprob, tokens, frame in active:
            starts.append(len(totals))
            if len(frame[0]) == 1:  # forced: its one token at log probability 0.0, with no scorer call
                picks.append((0,))
                totals.append(logprob)
                continue
            row = None if memo is None else memo.get(key := (tokens[-1], frame[0]))
            if row is None:
                log_probs = _log_softmax(scorer.score(text, tokens, frame[0]), frame[0])
                if memo is None:
                    picks.append(range(len(log_probs)))
                    totals += map(logprob.__add__, log_probs)
                    continue
                # Ranked by (-log prob, index) once, when stored.
                order = sorted(range(len(log_probs)), key=log_probs.__getitem__, reverse=True)
                row = memo[key] = (log_probs, order)
            picks.append(pick := _memo_picks(row, logprob, beam_width))
            totals += [logprob + row[0][index] for index in pick]
        # Stable, so equal totals keep (parent rank, index) order, as their full keys would.
        survivors = sorted(range(len(totals)), key=totals.__getitem__, reverse=True)[:beam_width]
        survivors.sort()
        parents, active, bank_size = active, [], len(banked)
        for position in survivors:
            parent = bisect_right(starts, position) - 1
            _, tokens, frame = parents[parent]
            index = picks[parent][position - starts[parent]]
            token = frame[0][index]
            tokens += (token,)
            logprob = totals[position]
            if token == EOS or (not constrained and len(tokens) >= limit):
                banked.append(((-logprob, tuple(map(tax._rank.__getitem__, tokens))), tokens))
            elif constrained:
                active.append((logprob, tokens, _advance(tax, frame, index)))
            else:
                active.append((logprob, tokens, frame))
        if len(banked) > bank_size:
            banked.sort(key=itemgetter(0))
            del banked[beam_width:]
        if (
            len(banked) == beam_width
            and active
            and max([hyp[0] for hyp in active]) < -banked[-1][0][0]
        ):
            break
    return [
        DecodedSequence(
            tokens[:-1] if tokens[-1] == EOS else tokens, frozenset(_labels(tax, tokens)), -negative
        )
        for (negative, _), tokens in banked
    ]


def constrained_beam_search(
    tax: Taxonomy, scorer: Scorer, text: str, beam_width: int = 4
) -> list[DecodedSequence]:
    """Beam search where each expansion is limited to the dynamic vocabulary.

    Hypotheses that emit ``<eos>`` inside a step's top-``beam_width`` cut
    are banked as complete and stop holding beam slots. Log probabilities
    only decrease as tokens are appended, so the search ends once
    ``beam_width`` completes are banked and no active hypothesis can
    still beat the worst of them (ties keep searching so tie-breaks stay
    lexicographic), or when no active hypotheses remain. Returns up to
    ``beam_width`` banked hypotheses, best first. Every result passes
    sequence validation, so the top label set is consistent for any
    scorer. A label is pushed and popped at most once, so a stored result
    has at most ``2 * len(tax) - 1`` tokens; the DecodeOverflowError at
    ``max_decode_length`` only guards that invariant. A cap on one
    decode's work must therefore count expansions, not tokens.
    """
    return _beam(tax, scorer, text, beam_width, constrained=True)


def greedy_decode(tax: Taxonomy, scorer: Scorer, text: str) -> DecodedSequence:
    """Beam width 1: follow the argmax token at every step."""
    return constrained_beam_search(tax, scorer, text, beam_width=1)[0]


def full_alphabet(tax: Taxonomy) -> tuple[str, ...]:
    """Every candidate token: non-root labels plus POP and <eos>, sorted once by ``token_sort_key``."""
    return tax._alphabet


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
    return _beam(tax, scorer, text, beam_width, constrained=False)[0]
