from __future__ import annotations

import math
import random

import pytest

from conftest import (
    TWO_PATH_LABELS,
    TWO_PATH_SEQUENCE,
    UNIFORM_GREEDY_RENDERED,
    oracle_complete_sequences,
    oracle_continuations,
    oracle_prefix_valid,
    oracle_reachable_states,
    oracle_stack_and_used,
    random_consistent_labels,
    random_taxonomy,
    shuffled_taxonomy,
    straddling_taxonomy,
)
from treedecode import (
    BOS,
    EOS,
    POP,
    DecoderState,
    IllegalStateError,
    IllegalTokenError,
    InvalidScoreError,
    InvalidSequenceError,
    OracleScorer,
    RandomScorer,
    Taxonomy,
    UniformScorer,
    UnknownLabelError,
    constrained_beam_search,
    delinearize,
    dynamic_vocabulary,
    fit_bigram_scorer,
    full_alphabet,
    greedy_decode,
    initial_state,
    linearize,
    max_decode_length,
    render_sequence,
    restricted_log_softmax,
    restricted_softmax,
    sequence_nll,
    state_from_prefix,
    step,
    unconstrained_decode,
    validate_sequence,
)
from treedecode.decoding import _vocabulary
from treedecode.tokens import token_sort_key


class EverythingScorer:
    """Scores the full alphabet and two tokens outside it, whatever the candidates.

    The extra scores would change every log probability if the decoder read
    them: it must read the candidates' scores only.
    """

    def __init__(self, base, tax):
        self.base = base
        self.alphabet = full_alphabet(tax)
        self.outside = {tax.root: math.inf, BOS: 1e300}

    def score(self, text, prefix, candidates):
        return {**self.base.score(text, prefix, self.alphabet), **self.outside}


class DroppingScorer:
    """Uniform scores for every candidate but one token, which never gets a score."""

    def __init__(self, dropped):
        self.dropped = dropped

    def score(self, text, prefix, candidates):
        return {t: 0.0 for t in candidates if t != self.dropped}


# -- dynamic vocabulary ------------------------------------------------------


def test_vocabulary_inside_a_path(media_tax):
    state = state_from_prefix(media_tax, ["Root", "Entertainment", "Movie"])
    assert dynamic_vocabulary(media_tax, state) == {"Documentary", "Action", "POP"}


def test_vocabulary_at_leaf(media_tax):
    state = state_from_prefix(media_tax, ["Root", "Entertainment", "Movie", "Documentary"])
    assert dynamic_vocabulary(media_tax, state) == {"POP"}


def test_vocabulary_back_at_root_excludes_visited(media_tax):
    prefix = ["Root", "Entertainment", "Movie", "Documentary", "POP", "POP", "POP"]
    state = state_from_prefix(media_tax, prefix)
    assert dynamic_vocabulary(media_tax, state) == {"Business", EOS}


def test_vocabulary_initial(media_tax):
    assert dynamic_vocabulary(media_tax, initial_state(media_tax)) == {
        "Entertainment", "Business", EOS,
    }


def test_vocabulary_terminal_state_is_illegal(media_tax):
    state = step(media_tax, initial_state(media_tax), EOS)
    assert state.terminal
    with pytest.raises(IllegalStateError):
        dynamic_vocabulary(media_tax, state)


def test_vocabulary_never_empty_and_exact_against_oracle():
    from conftest import oracle_continuations, oracle_reachable_states

    rng = random.Random(31)
    for _ in range(25):
        tax = random_taxonomy(rng, rng.randint(2, 9))
        for (stack, used), witness in oracle_reachable_states(tax).items():
            state = state_from_prefix(tax, witness)
            vocab = dynamic_vocabulary(tax, state)
            assert vocab, f"empty vocabulary at {witness}"
            assert vocab == oracle_continuations(tax, witness)
            assert (EOS in vocab) == (len(stack) == 1)
            assert (POP in vocab) == (len(stack) > 1)


def test_vocabulary_tuple_is_in_tie_break_order():
    # Children are listed against name order, so input order and tie-break order differ.
    tax = Taxonomy.from_edges([("Root", "B"), ("Root", "A"), ("B", "B2"), ("B", "B1")])
    assert _vocabulary(tax, initial_state(tax)) == ("A", "B", EOS)
    assert _vocabulary(tax, state_from_prefix(tax, ["Root", "B"])) == ("B1", "B2", POP)
    assert _vocabulary(tax, state_from_prefix(tax, ["Root", "B", "B1", POP])) == ("B2", POP)
    # As plain strings "<a" < "<eos>" < "<f" and "POO" < "POP" < "POQ"; every label still comes first.
    tax = Taxonomy.from_edges(
        [("Root", "<f"), ("Root", "POQ"), ("Root", "a"), ("Root", "<a"), ("Root", "POO"),
         ("POO", "pop"), ("POO", "eos"), ("POO", "Z")]
    )
    assert _vocabulary(tax, initial_state(tax)) == ("<a", "<f", "POO", "POQ", "a", EOS)
    assert _vocabulary(tax, state_from_prefix(tax, ["Root", "POO"])) == ("Z", "eos", "pop", POP)
    rng = random.Random(43)
    for n_nodes in [rng.randint(2, 9) for _ in range(40)]:
        tax = (shuffled_taxonomy if n_nodes % 2 else straddling_taxonomy)(rng, n_nodes)
        for node in tax.nodes:
            end = EOS if node == tax.root else POP
            assert tax._start[node] == tuple(sorted((*tax.children(node), end), key=token_sort_key))
        for witness in oracle_reachable_states(tax).values():
            state = state_from_prefix(tax, witness)
            expected = tuple(sorted(dynamic_vocabulary(tax, state), key=token_sort_key))
            assert _vocabulary(tax, state) == expected


def test_vocabulary_of_unknown_stack_top(media_tax):
    with pytest.raises(UnknownLabelError):
        dynamic_vocabulary(media_tax, DecoderState(("Root", "Music"), frozenset({"Music"})))


# -- step and replay ---------------------------------------------------------


def test_step_pop(media_tax):
    state = state_from_prefix(media_tax, ["Root", "Entertainment", "Movie"])
    popped = step(media_tax, state, POP)
    assert popped.stack == ("Root", "Entertainment")
    assert popped.visited == {"Entertainment", "Movie"}


def test_step_push(media_tax):
    pushed = step(media_tax, initial_state(media_tax), "Entertainment")
    assert pushed.stack == ("Root", "Entertainment")
    assert pushed.visited == {"Entertainment"}


def test_step_rejects_non_child(media_tax):
    state = state_from_prefix(media_tax, ["Root", "Business"])
    with pytest.raises(IllegalTokenError):
        step(media_tax, state, "Documentary")


def test_step_rejects_after_terminal(media_tax):
    terminal = step(media_tax, initial_state(media_tax), EOS)
    with pytest.raises(IllegalStateError):
        step(media_tax, terminal, "Entertainment")


def test_incremental_matches_full_replay():
    rng = random.Random(37)
    for _ in range(40):
        tax = random_taxonomy(rng, rng.randint(2, 30))
        sequence = linearize(tax, random_consistent_labels(rng, tax))
        state = initial_state(tax)
        for end in range(1, len(sequence) + 1):
            prefix = sequence[:end]
            expected_stack, expected_visited = oracle_stack_and_used(tax, prefix)
            assert state.stack == expected_stack
            assert state.visited == expected_visited
            assert state == state_from_prefix(tax, prefix)
            if end < len(sequence):
                state = step(tax, state, sequence[end])


def test_state_from_prefix_requires_root(media_tax):
    for prefix, position, issue in [
        (["Entertainment"], 0, "NOT_ROOT_FIRST"),
        (["Root", "Business", "Documentary"], 2, "NON_CHILD"),
        (["Root", EOS], 1, "UNKNOWN_LABEL"),  # stored form: <eos> is never part of a prefix
    ]:
        with pytest.raises(InvalidSequenceError) as err:
            state_from_prefix(media_tax, prefix)
        assert (err.value.position, err.value.issue) == (position, issue)


# -- restricted softmax ------------------------------------------------------


def test_softmax_uniform_case():
    vocab = frozenset({"a", "b", "c"})
    probs = restricted_softmax({"a": 0.0, "b": 0.0, "c": 0.0}, vocab)
    for value in probs.values():
        assert value == pytest.approx(1 / 3, abs=1e-15)


def test_softmax_closed_form_two_logits():
    probs = restricted_softmax({"a": math.log(2), "b": 0.0}, frozenset({"a", "b"}))
    assert probs["a"] == pytest.approx(2 / 3, abs=1e-12)
    assert probs["b"] == pytest.approx(1 / 3, abs=1e-12)


def test_softmax_singleton_is_exactly_one():
    assert restricted_softmax({POP: -3.7}, frozenset({POP})) == {POP: 1.0}
    assert restricted_log_softmax({POP: 123.4}, frozenset({POP})) == {POP: 0.0}


def test_softmax_sums_to_one_and_preserves_order():
    rng = random.Random(41)
    for _ in range(200):
        k = rng.randint(1, 12)
        vocab = frozenset(f"t{i}" for i in range(k))
        scores = {t: rng.uniform(-30, 30) for t in vocab}
        probs = restricted_softmax(scores, vocab)
        assert abs(math.fsum(probs.values()) - 1.0) <= 1e-12
        assert all(p > 0 for p in probs.values())
        ranked_by_score = sorted(vocab, key=lambda t: scores[t])
        ranked_by_prob = sorted(vocab, key=lambda t: probs[t])
        for a, b in zip(ranked_by_score, ranked_by_prob):
            assert scores[a] == scores[ranked_by_score[0]] or a == b
        log_probs = restricted_log_softmax(scores, vocab)
        assert all(lp <= 0.0 for lp in log_probs.values())


def test_softmax_shift_invariance():
    # Bit-exact when score+shift is exact (integer scores); within 1e-12
    # otherwise, where the rounding happens in the addition itself.
    vocab = frozenset(f"t{i}" for i in range(6))
    int_scores = {t: float(i - 3) for i, t in enumerate(sorted(vocab))}
    int_shifted = {t: s + 1024.0 for t, s in int_scores.items()}
    assert restricted_softmax(int_scores, vocab) == restricted_softmax(int_shifted, vocab)

    rng = random.Random(43)
    scores = {t: rng.uniform(-5, 5) for t in vocab}
    shifted = {t: s + 17.25 for t, s in scores.items()}
    probs, shifted_probs = restricted_softmax(scores, vocab), restricted_softmax(shifted, vocab)
    for token in vocab:
        assert shifted_probs[token] == pytest.approx(probs[token], rel=1e-12)


def test_softmax_error_cases():
    with pytest.raises(InvalidScoreError):
        restricted_softmax({"a": float("nan"), "b": 0.0}, frozenset({"a", "b"}))
    with pytest.raises(InvalidScoreError):
        restricted_softmax({"a": float("inf")}, frozenset({"a"}))
    with pytest.raises(IllegalStateError):
        restricted_softmax({}, frozenset())
    with pytest.raises(InvalidScoreError, match="no score for token 'b'"):
        restricted_softmax({"a": 0.0}, frozenset({"a", "b"}))
    with pytest.raises(IllegalStateError, match="token 'a' repeats"):
        restricted_softmax({"a": 0.0, "b": 0.0}, ["a", "a", "b"])


def test_softmax_ignores_scores_outside_the_vocabulary():
    scores = {"a": 0.5, "b": -1.0}
    extended = {**scores, "c": 1e300, "d": float("nan")}
    assert restricted_log_softmax(extended, ["a", "b"]) == restricted_log_softmax(scores, ["a", "b"])


# -- sequence NLL ------------------------------------------------------------


def test_two_path_nll_under_uniform(media_tax):
    nll = sequence_nll(media_tax, UniformScorer(), "", TWO_PATH_SEQUENCE)
    assert nll == pytest.approx(2 * math.log(3) + 4 * math.log(2), abs=1e-9)


def test_nll_single_chain():
    # Vocabulary at the root is {A, <eos>}, so the only scored choice costs
    # ln 2 under the uniform scorer; the two forced steps cost exactly 0.
    tax = Taxonomy.from_edges([("Root", "A")])
    nll = sequence_nll(tax, UniformScorer(), "", ["Root", "A", "POP"])
    assert nll == pytest.approx(math.log(2), abs=1e-12)


def test_nll_oracle_beats_uniform(media_tax):
    uniform = sequence_nll(media_tax, UniformScorer(), "", TWO_PATH_SEQUENCE)
    oracle = sequence_nll(media_tax, OracleScorer(TWO_PATH_SEQUENCE), "", TWO_PATH_SEQUENCE)
    assert 0.0 <= oracle < uniform


def test_nll_rejects_invalid_gold(media_tax):
    with pytest.raises(InvalidSequenceError):
        sequence_nll(media_tax, UniformScorer(), "", ["Root", "Movie", "POP"])


def test_nll_nonnegative_random():
    rng = random.Random(47)
    for seed in range(10):
        tax = random_taxonomy(rng, rng.randint(2, 25))
        sequence = linearize(tax, random_consistent_labels(rng, tax))
        assert sequence_nll(tax, RandomScorer(seed), "doc", sequence) >= 0.0


def test_nll_and_logprob_match_the_oracle_after_a_pop_to_a_parent_with_children_left():
    # The oracle rebuilds each step's vocabulary by brute force, so a frame
    # splice that went wrong after such a POP changes one side only.
    rng = random.Random(71)
    returns = 0
    for case in range(30):
        tax = shuffled_taxonomy(rng, rng.randint(3, 12), max_depth=rng.randint(1, 3))
        scorer, text = RandomScorer(case), f"doc {case}"
        for width in (1, 4):
            top = constrained_beam_search(tax, scorer, text, width)[0]
            tokens = [*top.tokens, EOS]
            assert oracle_prefix_valid(tax, tokens)
            oracle_nll = 0.0
            for end in range(1, len(tokens)):
                vocab = sorted(oracle_continuations(tax, tokens[:end]), key=token_sort_key)
                log_probs = restricted_log_softmax(scorer.score(text, tokens[:end], vocab), vocab)
                oracle_nll -= log_probs[tokens[end]]
                returns += tokens[end - 1] == POP and bool(set(vocab) - {POP, EOS})
            assert sequence_nll(tax, scorer, text, top.tokens) == -top.logprob
            assert oracle_nll == pytest.approx(-top.logprob, rel=1e-12, abs=1e-12)
    assert returns > 0


def test_nll_of_the_top_beam_result_is_its_negated_logprob():
    # Scoring and search share the vocabulary and the softmax kernel, so the
    # two sums of the same log probabilities agree bit for bit.
    rng = random.Random(61)
    for case in range(30):
        tax = random_taxonomy(rng, rng.randint(2, 14), max_depth=rng.randint(1, 4))
        corpus = [("", random_consistent_labels(rng, tax)) for _ in range(rng.randint(1, 5))]
        text = f"doc {case}"
        for scorer in (RandomScorer(case), fit_bigram_scorer(tax, corpus)):
            for width in (1, 4):
                top = constrained_beam_search(tax, scorer, text, width)[0]
                assert sequence_nll(tax, scorer, text, top.tokens) == -top.logprob


# -- constrained beam search -------------------------------------------------


def test_oracle_recovery_two_path(media_tax):
    # Wider beams must not stop on early junk completions: [Root, <eos>]
    # finishes first at logprob ~ -10 but cannot outrank the target.
    for width in (1, 2, 4, 8):
        results = constrained_beam_search(
            media_tax, OracleScorer(TWO_PATH_SEQUENCE), "", beam_width=width
        )
        assert list(results[0].tokens) == TWO_PATH_SEQUENCE
        assert results[0].labels == TWO_PATH_LABELS
        assert len(results) <= width


def test_greedy_single_chain():
    # The root state always offers <eos> next to the one child, so even the
    # smallest taxonomy costs ln 2 at the first step; everything after is forced.
    tax = Taxonomy.from_edges([("Root", "A")])
    result = greedy_decode(tax, UniformScorer(), "")
    assert result.tokens == ("Root", "A", "POP")
    assert result.labels == {"A"}
    assert result.logprob == pytest.approx(-math.log(2), abs=1e-12)


def test_greedy_uniform_golden(media_tax):
    result = greedy_decode(media_tax, UniformScorer(), "")
    assert render_sequence(result.tokens) == UNIFORM_GREEDY_RENDERED
    assert result.logprob == pytest.approx(-(2 * math.log(3) + 4 * math.log(2)), abs=1e-9)


def test_full_width_beam_equals_exhaustive_enumeration():
    tax = Taxonomy.from_edges([("Root", "A"), ("Root", "B"), ("A", "C")])
    expected = oracle_complete_sequences(tax)
    assert expected == {
        ("Root",),
        ("Root", "A", "POP"),
        ("Root", "B", "POP"),
        ("Root", "A", "POP", "B", "POP"),
        ("Root", "B", "POP", "A", "POP"),
        ("Root", "A", "C", "POP", "POP"),
        ("Root", "A", "C", "POP", "POP", "B", "POP"),
        ("Root", "B", "POP", "A", "C", "POP", "POP"),
    }
    results = constrained_beam_search(tax, UniformScorer(), "", beam_width=len(expected))
    assert {r.tokens for r in results} == expected
    # The exhaustive argmax is the empty set: one <eos> step out of three options.
    assert results[0].tokens == ("Root",)
    assert results[0].logprob == pytest.approx(-math.log(3), abs=1e-12)
    assert [r.logprob for r in results] == sorted((r.logprob for r in results), reverse=True)


def test_adversarial_scorers_always_decode_consistent():
    rng = random.Random(53)
    for seed in range(8):
        tax = random_taxonomy(rng, rng.randint(2, 40))
        for width in (1, 2, 4):
            results = constrained_beam_search(tax, RandomScorer(seed), f"doc{seed}", width)
            for result in results:
                assert validate_sequence(tax, result.tokens).ok
                assert tax.is_consistent(result.labels)
                assert result.logprob <= 0.0
                # Each label is pushed and popped at most once, far inside max_decode_length.
                assert len(result.tokens) <= 2 * len(tax) - 1
            assert delinearize(tax, results[0].tokens) == set(results[0].labels)


def test_masked_and_restricted_scorers_agree(media_tax):
    base = RandomScorer(99)
    wrapped = EverythingScorer(base, media_tax)
    for width in (1, 3):
        direct = constrained_beam_search(media_tax, base, "d", width)
        masked = constrained_beam_search(media_tax, wrapped, "d", width)
        assert direct == masked
        assert unconstrained_decode(media_tax, base, "d", width) == unconstrained_decode(
            media_tax, wrapped, "d", width
        )
    gold = TWO_PATH_SEQUENCE
    assert sequence_nll(media_tax, wrapped, "d", gold) == sequence_nll(media_tax, base, "d", gold)


def test_a_candidate_without_a_score_is_an_invalid_score(media_tax):
    # Constrained, POP is first a candidate after a push, so a later step raises.
    scorer = DroppingScorer(POP)
    for decode in (constrained_beam_search, unconstrained_decode):
        with pytest.raises(InvalidScoreError, match="no score for token 'POP'"):
            decode(media_tax, scorer, "", 2)
    with pytest.raises(InvalidScoreError, match="no score for token 'POP'"):
        sequence_nll(media_tax, scorer, "", TWO_PATH_SEQUENCE)


def test_beam_width_must_be_positive(media_tax):
    with pytest.raises(ValueError):
        constrained_beam_search(media_tax, UniformScorer(), "", beam_width=0)
    with pytest.raises(ValueError):
        unconstrained_decode(media_tax, UniformScorer(), "", beam_width=0)


def test_max_decode_length(media_tax):
    assert max_decode_length(media_tax) == 16


def test_results_are_rank_sorted_with_deterministic_ties(media_tax):
    results = constrained_beam_search(media_tax, UniformScorer(), "", beam_width=6)
    ranks = [(-r.logprob, r.tokens) for r in results]
    assert ranks == sorted(ranks)


# -- unconstrained decoding --------------------------------------------------


def test_unconstrained_oracle_still_recovers(media_tax):
    result = unconstrained_decode(media_tax, OracleScorer(TWO_PATH_SEQUENCE), "", beam_width=1)
    assert list(result.tokens) == TWO_PATH_SEQUENCE
    assert result.labels == TWO_PATH_LABELS


def test_unconstrained_uniform_emits_invalid_sequences(media_tax):
    # Frozen seeded/deterministic run: lexicographic ties pick "Action"
    # forever, the length budget truncates, and validation fails.
    result = unconstrained_decode(media_tax, UniformScorer(), "", beam_width=1)
    assert result.tokens == ("Root",) + ("Action",) * 15
    assert result.labels == {"Action"}
    assert result.logprob == pytest.approx(-15 * math.log(8), abs=1e-9)
    assert not validate_sequence(media_tax, result.tokens).ok
    assert not media_tax.is_consistent(result.labels)


def test_unconstrained_random_can_be_inconsistent():
    rng = random.Random(59)
    inconsistent = 0
    for seed in range(30):
        tax = random_taxonomy(rng, 12)
        result = unconstrained_decode(tax, RandomScorer(seed), f"doc{seed}", beam_width=1)
        if not tax.is_consistent(result.labels):
            inconsistent += 1
    assert inconsistent > 0


def test_unconstrained_bigram_emits_isolated_labels():
    # Pooled bigram statistics make "ab" the best follower of POP in every
    # training document, so the unrestricted chain jumps into the zz branch
    # without emitting zz; the constrained decode of the same scorer stays
    # on valid paths and recovers the corpus label set exactly.
    from treedecode import fit_bigram_scorer

    tax = Taxonomy.from_edges([("Root", "mm"), ("Root", "zz"), ("zz", "aa"), ("zz", "ab")])
    corpus = [("", {"mm", "zz", "aa", "ab"})] * 12
    scorer = fit_bigram_scorer(tax, corpus)

    loose = unconstrained_decode(tax, scorer, "", beam_width=1)
    assert "ab" in loose.labels and "zz" not in loose.labels
    assert not tax.is_consistent(loose.labels)

    strict = greedy_decode(tax, scorer, "")
    assert tax.is_consistent(strict.labels)
    assert set(strict.labels) == {"mm", "zz", "aa", "ab"}
