"""The beam engine against a full-sort reference, the cross-length tie-break, and the order-1 memo.

``reference_beam`` is the straightforward beam search the engine replaces:
it builds every expansion as a full hypothesis, sorts all of them by
``(-logprob, sequence_sort_key(tokens))`` and keeps the first
``beam_width``. The engine ranks float totals with one stable sort and
builds only the survivors; both must return the same results in the same
order.

A scorer that declares ``markov_order = 1`` is scored once per (last
token, vocabulary) per decode, whatever else it declares; ``Forwarding``
hides the declaration, so the same scorer behind it is scored for every
hypothesis at every step.

A step whose vocabulary holds one token is forced: it costs 0.0 and asks
the scorer nothing, so a scorer that cannot score a lone candidate
(``LoneCandidateUnscored``) gives the same results bit for bit.
"""

from __future__ import annotations

import gc
import math
import random
import weakref
from dataclasses import dataclass

import pytest

from conftest import random_consistent_labels, random_taxonomy, shuffled_taxonomy
from treedecode import (
    EOS,
    POP,
    DecodedSequence,
    DecodeOverflowError,
    OracleScorer,
    RandomScorer,
    Taxonomy,
    BigramScorer,
    UniformScorer,
    constrained_beam_search,
    dynamic_vocabulary,
    fit_bigram_scorer,
    full_alphabet,
    initial_state,
    linearize,
    max_decode_length,
    parse_taxonomy,
    restricted_log_softmax,
    sequence_nll,
    step,
    unconstrained_decode,
)
from treedecode.decoding import _beam
from treedecode.tokens import sequence_sort_key, token_sort_key


def reference_beam(tax, scorer, text, beam_width, constrained):
    """Full-sort beam search; returns the banked (tokens, logprob) pairs, best first."""

    def order(entry):
        return (-entry[1], sequence_sort_key(entry[0]))

    alphabet = full_alphabet(tax)
    limit = max_decode_length(tax)
    active = [((tax.root,), 0.0, initial_state(tax) if constrained else None)]
    banked = []
    while active:
        if constrained and len(active[0][0]) >= limit:
            raise DecodeOverflowError("reference overflow")
        expansions = []
        for tokens, logprob, state in active:
            if constrained:
                vocab = dynamic_vocabulary(tax, state)
                candidates = sorted(vocab, key=token_sort_key)
            else:
                candidates, vocab = alphabet, frozenset(alphabet)
            log_probs = restricted_log_softmax(scorer.score(text, tokens, candidates), vocab)
            for token, lp in log_probs.items():
                nxt = step(tax, state, token) if constrained else None
                expansions.append((tokens + (token,), logprob + lp, nxt))
        expansions.sort(key=order)
        active = []
        for entry in expansions[:beam_width]:
            tokens = entry[0]
            if tokens[-1] == EOS or (not constrained and len(tokens) >= limit):
                banked.append(entry[:2])
            else:
                active.append(entry)
        banked.sort(key=order)
        del banked[beam_width:]
        if len(banked) == beam_width and active and active[0][1] < banked[-1][1]:
            break
    return banked


def stored(tax, tokens, logprob):
    tokens = tokens[:-1] if tokens[-1] == EOS else tokens
    return DecodedSequence(tokens, frozenset(t for t in tokens if t not in (POP, tax.root)), logprob)


def test_engine_matches_full_sort_reference():
    rng = random.Random(2204)
    decodes = 0
    for case in range(200):
        tax = random_taxonomy(rng, rng.randint(2, 8), max_depth=rng.randint(1, 4))
        text = f"case {case}"
        gold = linearize(tax, random_consistent_labels(rng, tax))
        scorers = (RandomScorer(rng.randrange(2**31)), UniformScorer(), OracleScorer(gold))
        for scorer in scorers:
            for width in range(1, 6):
                expected = [stored(tax, *entry) for entry in reference_beam(tax, scorer, text, width, True)]
                assert constrained_beam_search(tax, scorer, text, width) == expected
                top = reference_beam(tax, scorer, text, width, False)[0]
                assert unconstrained_decode(tax, scorer, text, width) == stored(tax, *top)
                decodes += 2
    assert decodes == 200 * 3 * 5 * 2


def relabeled(rng, tax):
    """``tax`` with its labels renamed by a seeded permutation, edges in the same order."""
    names = list(tax.labels)
    rng.shuffle(names)
    rename = {tax.root: tax.root, **dict(zip(tax.labels, names))}
    return Taxonomy.from_edges(
        [(rename[parent], rename[child]) for parent in tax.nodes for child in tax.children(parent)]
    )


def test_engine_matches_reference_when_child_order_is_not_name_order():
    # random_taxonomy names nodes in creation order, so its child lists are
    # already sorted by name; renamed, file order and tie-break order differ.
    rng = random.Random(2205)
    unsorted = 0
    for case in range(100):
        tax = relabeled(rng, random_taxonomy(rng, rng.randint(3, 8), max_depth=rng.randint(1, 4)))
        unsorted += any(list(tax.children(n)) != sorted(tax.children(n)) for n in tax.nodes)
        text = f"case {case}"
        gold = linearize(tax, random_consistent_labels(rng, tax))
        for scorer in (RandomScorer(rng.randrange(2**31)), UniformScorer(), OracleScorer(gold)):
            for width in (1, 2, 4):
                expected = [stored(tax, *entry) for entry in reference_beam(tax, scorer, text, width, True)]
                assert constrained_beam_search(tax, scorer, text, width) == expected
                top = reference_beam(tax, scorer, text, width, False)[0]
                assert unconstrained_decode(tax, scorer, text, width) == stored(tax, *top)
    assert unsorted > 50


def test_banked_hypotheses_of_different_lengths_tie_lexicographically():
    # Under the uniform scorer every complete sequence below the top two
    # costs exactly -log 3 - 2 log 2: e.g. Root A A1 POP POP <eos> picks from
    # vocabularies of sizes 3, 2, 1, 1, 2 and Root A POP <eos> from 3, 2, 2.
    # The tie is broken by the tokens with <eos> included, labels before
    # <eos> before POP, whatever the lengths.
    tax = parse_taxonomy("Root\tA\nRoot\tB\nA\tA1\n")
    results = constrained_beam_search(tax, UniformScorer(), "", beam_width=8)
    tie = -math.log(3) - math.log(2) - math.log(2)
    assert [(" ".join(r.tokens), r.logprob) for r in results] == [
        ("Root", -math.log(3)),
        ("Root B POP", -math.log(3) - math.log(2)),
        ("Root A A1 POP POP B POP", tie),
        ("Root A A1 POP POP", tie),
        ("Root A POP B POP", tie),
        ("Root A POP", tie),
        ("Root B POP A A1 POP POP", tie),
        ("Root B POP A POP", tie),
    ]


class CountingBigram(BigramScorer):
    """A bigram scorer that counts its ``score`` calls; it keeps ``markov_order = 1`` and ``reads_text = False``."""

    calls = 0

    def score(self, text, prefix, candidates):
        self.calls += 1
        return super().score(text, prefix, candidates)


class TextReadingBigram(CountingBigram):
    """A counting bigram scorer that keeps ``markov_order = 1`` but does not promise to ignore the text."""

    reads_text = True


class Forwarding:
    """Forwards ``score`` to a scorer but declares no ``markov_order`` and no ``reads_text``."""

    def __init__(self, scorer):
        self.scorer = scorer

    def score(self, text, prefix, candidates):
        return self.scorer.score(text, prefix, candidates)


def counting_bigram(rng, tax, kind=CountingBigram):
    fitted = fit_bigram_scorer(tax, [("", random_consistent_labels(rng, tax)) for _ in range(20)])
    return kind(fitted.alphabet, fitted.counts)


def bit_exact(results):
    return [(r.tokens, r.labels, r.logprob.hex()) for r in results]


def test_order_one_memo_changes_no_result():
    rng = random.Random(2206)
    memo_calls = plain_calls = 0
    for case in range(40):
        tax = random_taxonomy(rng, rng.randint(2, 31), max_depth=rng.randint(1, 6))
        scorer = counting_bigram(rng, tax)
        text = f"case {case}"
        for constrained in (True, False):
            for width in (1, 2, 4, 8):
                before = scorer.calls
                memoized = bit_exact(_beam(tax, scorer, text, width, constrained))
                memo_calls += scorer.calls - before
                before = scorer.calls
                plain = bit_exact(_beam(tax, Forwarding(scorer), text, width, constrained))
                plain_calls += scorer.calls - before
                assert memoized == plain
    assert memo_calls < plain_calls / 2  # the memo was used, not bypassed


class Staircase:
    """An order-1 scorer: ``<eos>`` scores -50 and the candidate at index ``i`` scores ``i * step``."""

    markov_order = 1

    def __init__(self, step):
        self.step = step

    def score(self, text, prefix, candidates):
        return {t: -50.0 if t == EOS else i * self.step for i, t in enumerate(candidates)}


def test_reused_rows_keep_candidates_whose_totals_round_to_a_tie():
    # Log probabilities a few ulps apart become equal totals once added to a
    # larger logprob, and then the smaller index must win; a reused row that
    # kept only its beam_width best log probabilities would lose it.
    tax = parse_taxonomy("".join(f"Root\tL{i}\n" for i in range(7)))
    for step in (1e-15, 2e-15, 5e-15, 1e-14, 3e-14):
        scorer = Staircase(step)
        for width in (2, 3, 4):
            memoized = bit_exact(_beam(tax, scorer, "", width, False))
            assert memoized == bit_exact(_beam(tax, Forwarding(scorer), "", width, False))
            reference = reference_beam(tax, scorer, "", width, False)
            assert memoized == bit_exact([stored(tax, *entry) for entry in reference])


def unconstrained_score_calls(rng, cases, kind=CountingBigram):
    """Per seeded case: the tree, its fitted scorer, and the score calls and result of one decode."""
    for _ in range(cases):
        tax = random_taxonomy(rng, rng.randint(2, 31), max_depth=rng.randint(1, 6))
        scorer = counting_bigram(rng, tax, kind)
        result = unconstrained_decode(tax, scorer, "text", 4)
        yield tax, scorer, scorer.calls, result


def test_order_one_memo_lives_in_one_decode():
    # Whether or not the scorer may read the text, no row outlives its decode: the second scores afresh.
    for kind in (CountingBigram, TextReadingBigram):
        for tax, scorer, calls, _ in unconstrained_score_calls(random.Random(2207), 20, kind):
            unconstrained_decode(tax, scorer, "text", 4)
            assert scorer.calls == 2 * calls, kind.__name__


def test_one_scorer_decodes_every_width_and_mode_as_a_plain_search():
    # One scorer object decoded at every width and mode in turn agrees with memo-free searches.
    rng = random.Random(2210)
    for case in range(30):
        tax = random_taxonomy(rng, rng.randint(2, 31), max_depth=rng.randint(1, 6))
        scorer = counting_bigram(rng, tax)
        for constrained in (True, False, True):
            for width in (8, 1, 4, 2, 8):
                memoized = bit_exact(_beam(tax, scorer, f"case {case}", width, constrained))
                assert memoized == bit_exact(_beam(tax, Forwarding(scorer), "", width, constrained))


def test_no_decode_keeps_its_scorer_alive():
    tax = random_taxonomy(random.Random(2213), 12, max_depth=3)
    for kind in (CountingBigram, TextReadingBigram):
        scorer = counting_bigram(random.Random(2214), tax, kind)
        for constrained in (True, False):
            _beam(tax, scorer, "", 4, constrained)
        alive = weakref.ref(scorer)
        del scorer
        gc.collect()
        assert alive() is None, kind.__name__


@dataclass
class TextBlindRecord:
    """An order-1, text-blind scorer that cannot be a dict key: a dataclass with ``eq`` is unhashable."""

    step: float
    markov_order = 1
    reads_text = False
    calls: int = 0

    def score(self, text, prefix, candidates):
        self.calls += 1
        return {t: -len(prefix[-1]) * self.step * i for i, t in enumerate(candidates)}


def test_an_unhashable_order_one_scorer_is_memoized_per_decode():
    # The memo's keys are (last token, vocabulary), never the scorer, so any scorer object has one.
    tax = random_taxonomy(random.Random(2215), 12, max_depth=3)
    scorer = TextBlindRecord(0.25)
    first = bit_exact(_beam(tax, scorer, "", 4, False))
    calls = scorer.calls
    assert bit_exact(_beam(tax, scorer, "", 4, False)) == first
    assert scorer.calls == 2 * calls
    assert first == bit_exact(_beam(tax, Forwarding(scorer), "", 4, False))


def test_order_one_memo_scores_each_context_once_per_decode():
    # The contexts are the root, each label and POP; a finished hypothesis is never scored.
    truncated = 0
    for tax, _, calls, result in unconstrained_score_calls(random.Random(2208), 40):
        assert calls <= len(tax) + 1
        truncated += len(result.tokens) == max_decode_length(tax)
    assert truncated > 0


def test_only_the_bigram_scorer_declares_markov_order_one():
    # The memo would change the results of a scorer that reads more than the last token, and one
    # search per decode run those of a scorer that reads the text. The uniform scorer reads
    # neither, but a memo row costs it more than it saves.
    assert BigramScorer.markov_order == 1
    for scorer in (UniformScorer, OracleScorer, RandomScorer):
        assert not hasattr(scorer, "markov_order")
    assert BigramScorer.reads_text is UniformScorer.reads_text is False
    for scorer in (OracleScorer, RandomScorer):
        assert not hasattr(scorer, "reads_text")


def nan_score(token):
    return {token: math.nan}


def no_score(token):
    return {}


class LoneCandidateUnscored:
    """Forwards ``score`` to a scorer, keeping its ``markov_order``, except for a lone candidate.

    A lone candidate gets ``lone(token)``: a NaN score or none at all, either of
    which would end a decode that asked for it with an InvalidScoreError.
    """

    def __init__(self, scorer, lone):
        self.scorer = scorer
        self.lone = lone
        if hasattr(scorer, "markov_order"):
            self.markov_order = scorer.markov_order

    def score(self, text, prefix, candidates):
        if len(candidates) == 1:
            return self.lone(candidates[0])
        return self.scorer.score(text, prefix, candidates)


class CandidateSizes:
    """Forwards ``score`` to a scorer and records how many candidates each call was given."""

    def __init__(self, scorer):
        self.scorer = scorer
        self.sizes = []

    def score(self, text, prefix, candidates):
        self.sizes.append(len(candidates))
        return self.scorer.score(text, prefix, candidates)


def forced_steps(tax, tokens):
    """How many steps of a stored result, its ``<eos>`` included, had a one-token vocabulary."""
    state, forced = initial_state(tax), 0
    for token in [*tokens[1:], EOS]:
        forced += len(dynamic_vocabulary(tax, state)) == 1
        state = step(tax, state, token)
    return forced


def test_a_forced_step_asks_the_scorer_nothing():
    # A one-token vocabulary gives its token log probability 0.0 whatever the
    # score, so the search and sequence_nll take it without a scorer call: a
    # scorer that cannot score a lone candidate changes no bit of either.
    rng = random.Random(2216)
    forced = 0
    for case in range(25):
        tax = shuffled_taxonomy(rng, rng.randint(2, 20), max_depth=rng.randint(1, 5))
        gold = linearize(tax, random_consistent_labels(rng, tax))
        text = f"case {case}"
        scorers = (UniformScorer(), RandomScorer(case), OracleScorer(gold), counting_bigram(rng, tax))
        for scorer in scorers:
            for width in range(1, 5):
                clean = constrained_beam_search(tax, scorer, text, width)
                top = clean[0]
                nll = sequence_nll(tax, scorer, text, top.tokens)
                assert nll == -top.logprob
                forced += forced_steps(tax, top.tokens)
                for lone in (nan_score, no_score):
                    wrapped = LoneCandidateUnscored(scorer, lone)
                    assert bit_exact(constrained_beam_search(tax, wrapped, text, width)) == bit_exact(clean)
                    assert sequence_nll(tax, wrapped, text, top.tokens).hex() == nll.hex()
    assert forced > 0


def flat_wide_taxonomy(rng, branching=12):
    """A complete two-level tree of ``branching`` children per node, names a seeded permutation."""
    names = [f"n{i:03d}" for i in rng.sample(range(1, 1000), branching + branching**2)]
    tops, rest = names[:branching], iter(names[branching:])
    edges = [("root", top) for top in tops]
    edges += [(top, next(rest)) for top in tops for _ in range(branching)]
    return Taxonomy.from_edges(edges)


def test_the_scorer_is_only_asked_where_there_is_a_choice():
    rng = random.Random(2217)
    for case in range(20):
        tax = shuffled_taxonomy(rng, rng.randint(2, 31), max_depth=rng.randint(1, 6))
        for constrained in (True, False):
            for width in (1, 4):
                scorer = CandidateSizes(RandomScorer(case))
                _beam(tax, scorer, f"case {case}", width, constrained)
                assert min(scorer.sizes) >= 2, (case, constrained, width)
    # One beam-4 uniform search of a flat 12x2 tree, the benchmark's uniform-wide
    # shape: a search that also asked for forced steps made 1,144 calls, 528 of
    # them with one candidate, and returned the same 235 tokens.
    scorer = CandidateSizes(UniformScorer())
    result = constrained_beam_search(flat_wide_taxonomy(random.Random(2218)), scorer, "", 4)[0]
    assert len(scorer.sizes) == 1144 - 528
    assert min(scorer.sizes) >= 2
    assert len(result.tokens) == 235
