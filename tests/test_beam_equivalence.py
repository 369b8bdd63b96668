"""The beam engine against a full-sort reference, and the cross-length tie-break.

``reference_beam`` is the straightforward beam search the engine replaces:
it builds every expansion as a full hypothesis, sorts all of them by
``(-logprob, sequence_sort_key(tokens))`` and keeps the first
``beam_width``. The engine ranks with constant-size keys and builds only
the survivors; both must return the same results in the same order.
"""

from __future__ import annotations

import math
import random

from conftest import random_consistent_labels, random_taxonomy
from treedecode import (
    EOS,
    POP,
    DecodedSequence,
    DecodeOverflowError,
    OracleScorer,
    RandomScorer,
    Taxonomy,
    UniformScorer,
    constrained_beam_search,
    dynamic_vocabulary,
    full_alphabet,
    initial_state,
    linearize,
    max_decode_length,
    parse_taxonomy,
    restricted_log_softmax,
    step,
    unconstrained_decode,
)
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
            raw = scorer.score(text, tokens, candidates)
            log_probs = restricted_log_softmax({t: raw[t] for t in candidates}, vocab)
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
