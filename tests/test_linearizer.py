from __future__ import annotations

import random

import pytest

from conftest import (
    TWO_PATH_LABELS,
    TWO_PATH_RENDERED,
    TWO_PATH_SEQUENCE,
    oracle_continuations,
    oracle_reachable_states,
    random_consistent_labels,
    random_taxonomy,
    shuffled_taxonomy,
)
from treedecode import (
    EOS,
    EmptyLabelSetError,
    InconsistentLabelSetError,
    InvalidSequenceError,
    POP,
    Taxonomy,
    UnknownLabelError,
    delinearize,
    full_alphabet,
    linearize,
    parse_sequence,
    render_sequence,
    state_from_prefix,
    validate_sequence,
)
from treedecode.linearizer import _advance, _start_frame
from treedecode.tokens import token_sort_key


def test_two_path_linearization(media_tax):
    assert linearize(media_tax, TWO_PATH_LABELS) == TWO_PATH_SEQUENCE
    assert render_sequence(linearize(media_tax, TWO_PATH_LABELS)) == TWO_PATH_RENDERED


def test_single_label(media_tax):
    assert linearize(media_tax, {"Entertainment"}) == ["Root", "Entertainment", "POP"]


def test_sibling_order_follows_taxonomy(media_tax):
    # Documentary precedes Action because of edge order, not alphabet.
    assert linearize(media_tax, {"Entertainment", "Movie", "Documentary", "Action"}) == [
        "Root", "Entertainment", "Movie", "Documentary", "POP", "Action", "POP", "POP", "POP",
    ]


def test_linearize_rejects_bad_inputs(media_tax):
    with pytest.raises(InconsistentLabelSetError):
        linearize(media_tax, {"Entertainment", "Documentary", "Company"})
    with pytest.raises(EmptyLabelSetError):
        linearize(media_tax, set())
    with pytest.raises(UnknownLabelError):
        linearize(media_tax, {"Music"})
    # The root opens every sequence but is never a label: {Root, A} would
    # break len(tokens) == 2*|labels| + 1 and delinearize to {A}.
    with pytest.raises(UnknownLabelError, match="'Root'"):
        linearize(media_tax, {"Root", "Entertainment"})


def test_delinearize_two_path(media_tax):
    assert delinearize(media_tax, TWO_PATH_SEQUENCE) == set(TWO_PATH_LABELS)
    assert delinearize(media_tax, ["Root", "Entertainment", "POP"]) == {"Entertainment"}


def test_delinearize_reports_offending_position(media_tax):
    with pytest.raises(InvalidSequenceError) as err:
        delinearize(media_tax, ["Root", "Company", "POP"])
    assert err.value.position == 1
    assert err.value.issue == "NON_CHILD"


@pytest.mark.parametrize(
    "tokens,position,code",
    [
        (["Root", "Entertainment", "POP", "POP"], 3, "POP_AT_ROOT"),
        (["Root", "Entertainment", "Entertainment"], 2, "NON_CHILD"),
        (["Entertainment", "Movie", "POP"], 0, "NOT_ROOT_FIRST"),
        ([], 0, "NOT_ROOT_FIRST"),
        (["Root", "Music"], 1, "UNKNOWN_LABEL"),
        (["Root", "<eos>"], 1, "UNKNOWN_LABEL"),
        (["Root", "Entertainment", "POP", "Entertainment", "POP"], 3, "DUPLICATE_LABEL"),
        (["Root", "Entertainment"], 2, "UNCLOSED"),
        (["Root", "Root", "POP"], 1, "NON_CHILD"),
        # <eos> at the root, where the decoder's vocabulary offers it: never stored.
        (["Root", "Entertainment", "POP", "<eos>"], 3, "UNKNOWN_LABEL"),
        (["Root", "<bos>"], 1, "UNKNOWN_LABEL"),
        (["Root", "Entertainment", "Company"], 2, "NON_CHILD"),
        (["Root", "Entertainment", "Movie", "POP", "Movie"], 4, "DUPLICATE_LABEL"),
    ],
)
def test_validate_sequence_violations(media_tax, tokens, position, code):
    report = validate_sequence(media_tax, tokens)
    assert not report.ok
    assert (report.position, report.code) == (position, code)


def test_first_violation_matches_brute_force_oracle():
    # Mostly invalid sequences: each token is a legal continuation or, one
    # time in four, any token of the alphabet (the root included).
    rng = random.Random(59)
    for _ in range(300):
        tax = random_taxonomy(rng, rng.randint(2, 8))
        alphabet = [tax.root, *full_alphabet(tax)]
        tokens = []
        for _ in range(rng.randint(1, 2 * len(tax) + 2)):
            legal = sorted(oracle_continuations(tax, tokens) - {EOS})
            tokens.append(rng.choice(legal if legal and rng.random() < 0.75 else alphabet))
        expected = next(
            (
                i for i, token in enumerate(tokens)
                if token == EOS or token not in oracle_continuations(tax, tokens[:i])
            ),
            None,
        )
        if expected is None:
            state_from_prefix(tax, tokens)
            continue
        with pytest.raises(InvalidSequenceError) as caught:
            state_from_prefix(tax, tokens)
        assert caught.value.position == expected, tokens
        # The stored-form check meets the same violation first.
        report = validate_sequence(tax, tokens)
        assert (report.position, report.code) == (expected, caught.value.issue), tokens


def test_validate_sequence_accepts_two_path(media_tax):
    assert validate_sequence(media_tax, TWO_PATH_SEQUENCE).ok


def test_validate_prefix_mode(media_tax):
    # A valid prefix replays to a state; as a stored sequence it is unclosed.
    assert state_from_prefix(media_tax, ["Root", "Entertainment"]).stack == ("Root", "Entertainment")
    report = validate_sequence(media_tax, ["Root", "Entertainment"])
    assert (report.ok, report.position, report.code) == (False, 2, "UNCLOSED")


def test_non_canonical_sibling_order_is_still_valid(media_tax):
    # The automaton does not force taxonomy sibling order; decoding may
    # visit Business before Entertainment.
    tokens = ["Root", "Business", "Company", "POP", "POP", "Entertainment", "POP"]
    assert validate_sequence(media_tax, tokens).ok
    assert delinearize(media_tax, tokens) == {"Business", "Company", "Entertainment"}


def test_round_trips_and_length_law():
    rng = random.Random(23)
    for _ in range(60):
        tax = random_taxonomy(rng, rng.randint(2, 50))
        labels = random_consistent_labels(rng, tax)
        sequence = linearize(tax, labels)
        assert validate_sequence(tax, sequence).ok
        assert len(sequence) == 2 * len(labels) + 1
        assert delinearize(tax, sequence) == labels
        assert linearize(tax, delinearize(tax, sequence)) == sequence


def test_render_parse_round_trip():
    assert parse_sequence(TWO_PATH_RENDERED) == TWO_PATH_SEQUENCE
    assert render_sequence(parse_sequence(TWO_PATH_RENDERED)) == TWO_PATH_RENDERED


def test_deep_chain_round_trip():
    # Deeper than the default recursion limit: linearize must not recurse per level.
    depth = 1500
    names = [f"c{i:04d}" for i in range(1, depth + 1)]
    tax = Taxonomy.from_edges(list(zip(["root", *names], names)))
    sequence = linearize(tax, names)
    assert sequence == ["root", *names, *[POP] * depth]
    assert delinearize(tax, sequence) == set(names)


def test_frame_vocabulary_matches_the_oracle_at_every_reachable_prefix():
    # A push that left the chosen child in its parent's tuple would offer that
    # child again once a POP returns to the parent; ``returns`` counts such POPs.
    rng = random.Random(67)
    returns = 0
    for _ in range(30):
        tax = shuffled_taxonomy(rng, rng.randint(2, 9))
        for witness in oracle_reachable_states(tax).values():
            frame = _start_frame(tax)
            for end in range(1, len(witness) + 1):
                expected = oracle_continuations(tax, witness[:end])
                assert frame[0] == tuple(sorted(expected, key=token_sort_key)), witness[:end]
                returns += witness[end - 1] == POP and bool(expected - {POP, EOS})
                if end < len(witness):
                    frame = _advance(tax, frame, frame[0].index(witness[end]))
    assert returns > 0
