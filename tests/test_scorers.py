from __future__ import annotations

import itertools
import json
import math
import random

import pytest

from conftest import (
    TWO_PATH_SEQUENCE,
    random_consistent_labels,
    random_taxonomy,
    shuffled_taxonomy,
    straddling_taxonomy,
)
from treedecode import (
    EOS,
    POP,
    BigramScorer,
    EmptyCorpusError,
    InconsistentLabelSetError,
    ModelFormatError,
    OracleScorer,
    RandomScorer,
    Taxonomy,
    UniformScorer,
    constrained_beam_search,
    fit_bigram_scorer,
    full_alphabet,
    linearize,
    restricted_softmax,
)
from treedecode.tokens import sequence_sort_key, token_sort_key


def test_uniform_scorer_probabilities():
    scorer = UniformScorer()
    candidates = ("a", "b", "c", "d")
    scores = scorer.score("text", ("Root",), candidates)
    probs = restricted_softmax(scores, frozenset(candidates))
    for token in candidates:
        assert probs[token] == pytest.approx(0.25, abs=1e-15)


def test_oracle_scorer_closed_form_probability():
    # Five candidates at the root (4 children + <eos>): the margin-10 target
    # gets e^10 / (e^10 + 4).
    tax = Taxonomy.from_edges([("Root", c) for c in "ABCD"])
    scorer = OracleScorer(["Root", "A", "POP"])
    candidates = ("A", "B", "C", "D", EOS)
    probs = restricted_softmax(
        scorer.score("", ("Root",), candidates), frozenset(candidates)
    )
    expected = math.exp(10) / (math.exp(10) + 4)
    assert probs["A"] == pytest.approx(expected, rel=1e-12)


def test_oracle_margin_zero_is_uniform():
    scorer = OracleScorer(TWO_PATH_SEQUENCE, margin=0.0)
    uniform = UniformScorer()
    candidates = ("Entertainment", "Business", EOS)
    assert scorer.score("", ("Root",), candidates) == uniform.score("", ("Root",), candidates)


def test_oracle_recovery_on_random_instances():
    rng = random.Random(61)
    for _ in range(20):
        tax = random_taxonomy(rng, rng.randint(2, 40))
        target_labels = random_consistent_labels(rng, tax)
        target = linearize(tax, target_labels)
        result = constrained_beam_search(tax, OracleScorer(target), "", beam_width=1)[0]
        assert list(result.tokens) == target
        assert set(result.labels) == target_labels


def test_oracle_scores_off_target_uniformly():
    scorer = OracleScorer(["Root", "A", "POP"])
    scores = scorer.score("", ("Root", "B"), ("A", "C", POP))
    assert set(scores.values()) == {0.0}


def test_random_scorer_is_deterministic_and_bounded():
    scorer = RandomScorer(seed=3, scale=5.0)
    first = scorer.score("doc", ("Root", "A"), ("B", "C", POP))
    second = scorer.score("doc", ("Root", "A"), ("B", "C", POP))
    assert first == second
    assert all(-5.0 <= v <= 5.0 for v in first.values())
    other_seed = RandomScorer(seed=4).score("doc", ("Root", "A"), ("B", "C", POP))
    assert other_seed != first


def _media_corpus(labels_per_doc):
    return [("", labels) for labels in labels_per_doc]


def test_bigram_one_document_hand_check(media_tax):
    scorer = fit_bigram_scorer(media_tax, _media_corpus([{"Entertainment"}]))
    assert len(scorer.alphabet) == 8  # 6 labels + POP + <eos>
    assert scorer.probability("Root", "Entertainment") == pytest.approx(2 / 9, abs=1e-15)
    assert scorer.probability("Root", "Business") == pytest.approx(1 / 9, abs=1e-15)
    raw = scorer.score("", ("Root",), ("Entertainment", "Business", EOS))
    assert raw["Entertainment"] == pytest.approx(math.log(2 / 9), abs=1e-12)


def test_bigram_symmetric_corpus(media_tax):
    scorer = fit_bigram_scorer(media_tax, _media_corpus([{"Entertainment"}, {"Business"}]))
    raw = scorer.score("", ("Root",), ("Entertainment", "Business"))
    assert raw["Entertainment"] == raw["Business"]


def test_bigram_distributions_sum_to_one(media_tax):
    scorer = fit_bigram_scorer(
        media_tax,
        _media_corpus([
            {"Entertainment", "Movie", "Documentary"},
            {"Business", "Company"},
            {"Entertainment"},
        ]),
    )
    contexts = ["Root", "Entertainment", "Movie", "Documentary", POP, "Company"]
    for prev in contexts:
        total = math.fsum(scorer.probability(prev, token) for token in scorer.alphabet)
        assert total == pytest.approx(1.0, abs=1e-12)


def test_bigram_text_is_ignored(media_tax):
    scorer = fit_bigram_scorer(media_tax, _media_corpus([{"Entertainment"}]))
    a = scorer.score("some text", ("Root",), ("Entertainment",))
    b = scorer.score("other text", ("Root",), ("Entertainment",))
    assert a == b


def test_bigram_persistence_round_trip(media_tax, tmp_path):
    corpus = _media_corpus([{"Entertainment", "Movie"}, {"Business", "Company"}])
    scorer = fit_bigram_scorer(media_tax, corpus)
    path = tmp_path / "model.json"
    scorer.save(path)
    loaded = BigramScorer.load(path)
    assert loaded.alphabet == scorer.alphabet
    prefix = ("Root", "Entertainment")
    candidates = tuple(scorer.alphabet)
    assert loaded.score("", prefix, candidates) == scorer.score("", prefix, candidates)

    refit = fit_bigram_scorer(media_tax, corpus)
    other = tmp_path / "model2.json"
    refit.save(other)
    assert path.read_bytes() == other.read_bytes()


@pytest.mark.parametrize(
    "alphabet",
    # Empty, a decode divided by zero; with 'A' twice, P(. | Root) summed to 0.875 on this model.
    [[], ["A", "A", "B", "C", EOS, POP]],
    ids=["empty", "repeated"],
)
def test_bigram_load_rejects_an_empty_or_repeated_alphabet(alphabet, tmp_path):
    tax = Taxonomy.from_edges([("Root", "A"), ("A", "B"), ("Root", "C")])
    model = fit_bigram_scorer(tax, [("", {"A", "B"}), ("", {"C"})]).to_dict()
    model["alphabet"] = alphabet
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model))
    with pytest.raises(ModelFormatError, match="non-empty list of distinct strings"):
        BigramScorer.load(path)


@pytest.mark.parametrize(
    "alphabet, counts",
    # Empty, a score divided by zero; with 'A' twice, P(. | Root) summed to 0.75 over A and B.
    [((), {}), (("A", "A", "B"), {"Root": {"A": 1}})],
    ids=["empty", "repeated"],
)
def test_bigram_constructor_rejects_what_load_rejects(alphabet, counts, tmp_path):
    with pytest.raises(ModelFormatError, match="^'alphabet' must be a non-empty list of distinct strings$"):
        BigramScorer(alphabet, counts)
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"alphabet": list(alphabet), "counts": counts}))
    with pytest.raises(ModelFormatError, match="^.*model.json: 'alphabet' must be a non-empty list"):
        BigramScorer.load(path)


def test_bigram_scores_equal_the_formula_bit_for_bit(media_tax, tmp_path):
    corpus = _media_corpus([
        {"Entertainment", "Movie", "Documentary"},
        {"Business", "Company"},
        {"Entertainment", "Movie", "Action"},
        {"Entertainment"},
    ])
    scorer = fit_bigram_scorer(media_tax, corpus)
    path = tmp_path / "model.json"
    scorer.save(path)
    alphabet = full_alphabet(media_tax)
    contexts = (media_tax.root, *alphabet, "Unseen")
    candidates = (*alphabet, "Outside")
    for model in (scorer, BigramScorer.load(path)):
        for _ in range(2):  # the second pass scores contexts the object has already scored
            for prev in contexts:
                scores = model.score("", ("Root", prev), candidates)
                assert list(scores) == list(candidates)
                for token in candidates:
                    assert scores[token] == math.log(model.probability(prev, token))


def test_bigram_counts_include_terminal_transition(media_tax):
    scorer = fit_bigram_scorer(media_tax, _media_corpus([{"Entertainment"}]))
    # Root Entertainment POP <eos> contributes POP -> <eos>.
    assert scorer.counts[POP][EOS] == 1


def test_bigram_empty_corpus(media_tax):
    with pytest.raises(EmptyCorpusError):
        fit_bigram_scorer(media_tax, [])


def test_bigram_inconsistent_corpus(media_tax):
    corpus = _media_corpus([{"Documentary"}])
    with pytest.raises(InconsistentLabelSetError):
        fit_bigram_scorer(media_tax, corpus)
    repaired = fit_bigram_scorer(media_tax, corpus, closure=True)
    assert repaired.repaired_docs == 1
    direct = fit_bigram_scorer(
        media_tax, _media_corpus([{"Entertainment", "Movie", "Documentary"}])
    )
    assert repaired.counts == direct.counts


def _reference_fit(tax, corpus, closure):
    """Per-document ``linearize`` plus ``itertools.pairwise``, independent of fit's one-pass count."""
    counts, repaired = {}, 0
    for _, labels in corpus:
        closed = tax.ancestor_closure(labels) if closure else set(labels)
        repaired += len(closed) > len(set(labels))
        for prev, nxt in itertools.pairwise(linearize(tax, closed) + [EOS]):
            counts.setdefault(prev, {})
            counts[prev][nxt] = counts[prev].get(nxt, 0) + 1
    return BigramScorer(full_alphabet(tax), counts, repaired)


@pytest.mark.parametrize("closure", [False, True], ids=["consistent", "closure"])
@pytest.mark.parametrize("make_tree", [shuffled_taxonomy, straddling_taxonomy])
def test_fit_equals_an_independent_count(make_tree, closure, tmp_path):
    rng = random.Random(19)
    repairs = 0
    for trial in range(25):
        tax = make_tree(rng, rng.randint(2, 24))
        sets = [set(), set(), *(random_consistent_labels(rng, tax) for _ in range(6))]
        if closure:  # members whose ancestors are missing, the empty set among them
            sets += [set(rng.sample(tax.labels, k=rng.randint(0, len(tax.labels)))) for _ in range(6)]
        sets += rng.sample(sets, k=4)  # repeated sets
        rng.shuffle(sets)
        corpus = [(f"doc {i}", labels) for i, labels in enumerate(sets)]
        fitted = fit_bigram_scorer(tax, iter(corpus), closure=closure)
        reference = _reference_fit(tax, corpus, closure)
        assert fitted.to_dict() == reference.to_dict()
        assert fitted.repaired_docs == reference.repaired_docs
        repairs += fitted.repaired_docs
        fitted.save(tmp_path / "fitted.json")
        reference.save(tmp_path / "reference.json")
        assert (tmp_path / "fitted.json").read_bytes() == (tmp_path / "reference.json").read_bytes()
    assert (repairs > 0) == closure


def test_full_alphabet_order(media_tax):
    assert full_alphabet(media_tax) == (
        "Action", "Business", "Company", "Documentary", "Entertainment", "Movie", EOS, POP,
    )
    # As plain strings "<a" < "<eos>" < "<f" and "POO" < "POP" < "POQ"; every label still comes first.
    tax = Taxonomy.from_edges([("Root", name) for name in ("pop", "POQ", "<f", "POO", "a", "<a")])
    assert full_alphabet(tax) == ("<a", "<f", "POO", "POQ", "a", "pop", EOS, POP)
    rng = random.Random(71)
    for n_nodes in [rng.randint(2, 9) for _ in range(40)]:
        tax = (shuffled_taxonomy if n_nodes % 2 else straddling_taxonomy)(rng, n_nodes)
        alphabet = full_alphabet(tax)
        assert alphabet == tuple(sorted((*tax.labels, EOS, POP), key=token_sort_key))
        # The decoder banks tuples of ranks; they must order sequences, prefixes included,
        # exactly as sequence_sort_key does.
        sequences = []
        for _ in range(30):
            tokens = (tax.root, *rng.choices(alphabet, k=rng.randint(0, 6)))
            sequences += [tokens, tokens[: rng.randint(1, len(tokens))]]
        for a, b in itertools.product(sequences, repeat=2):
            ranks_a, ranks_b = (tuple(map(tax._rank.__getitem__, s)) for s in (a, b))
            assert (ranks_a < ranks_b) == (sequence_sort_key(a) < sequence_sort_key(b)), (a, b)
            assert (ranks_a == ranks_b) == (a == b), (a, b)
