from __future__ import annotations

import random
from pathlib import Path

import pytest

from conftest import random_consistent_labels, random_taxonomy
from treedecode import (
    AlignmentError,
    LabelCounts,
    Taxonomy,
    UnknownLabelError,
    confusion_counts,
    evaluate,
    macro_f1,
    micro_f1,
    parse_taxonomy,
    read_documents,
)

GOLD = {"Entertainment", "Movie", "Documentary", "Business", "Company"}
ISOLATED_PRED = {"Entertainment", "Documentary", "Company"}
DEMO = Path(__file__).resolve().parent.parent / "demos" / "data"


def test_isolated_nodes_standard_counts(media_tax):
    counts, _ = confusion_counts(media_tax, [GOLD], [ISOLATED_PRED])
    assert (counts.totals.tp, counts.totals.fp, counts.totals.fn) == (3, 0, 2)
    assert counts.per_label["Documentary"].tp == 1
    assert counts.per_label["Movie"].fn == 1


def test_isolated_nodes_constrained_counts(media_tax):
    # Documentary and Company are correct but their parents are missing, so
    # both are denied: still predictions (fp) and still unmet gold (fn).
    _, counts = confusion_counts(media_tax, [GOLD], [ISOLATED_PRED])
    assert (counts.totals.tp, counts.totals.fp, counts.totals.fn) == (1, 2, 4)
    assert counts.per_label["Entertainment"].tp == 1
    assert counts.per_label["Documentary"].fp == 1
    assert counts.per_label["Documentary"].fn == 1


def test_isolated_nodes_micro_values(media_tax):
    standard, constrained = confusion_counts(media_tax, [GOLD], [ISOLATED_PRED])
    assert micro_f1(standard) == 0.75
    assert micro_f1(constrained) == 0.25


def test_isolated_nodes_macro_values(media_tax):
    # Action never occurs and contributes F1 = 0 to the average.
    standard, constrained = confusion_counts(media_tax, [GOLD], [ISOLATED_PRED])
    assert macro_f1(standard) == pytest.approx(0.5, abs=1e-15)
    assert macro_f1(constrained) == pytest.approx(1 / 6, abs=1e-15)


def test_perfect_predictions(media_tax):
    report = evaluate(media_tax, [GOLD, {"Entertainment"}], [set(GOLD), {"Entertainment"}])
    assert report.micro_f1 == 1.0
    assert report.c_micro_f1 == 1.0
    assert report.inconsistent_docs == 0


def test_empty_prediction(media_tax):
    for counts in confusion_counts(media_tax, [GOLD], [set()]):
        assert (counts.totals.tp, counts.totals.fp, counts.totals.fn) == (0, 0, len(GOLD))


def test_consistent_predictions_make_modes_equal(media_tax):
    pred = {"Entertainment", "Movie", "Business"}
    assert media_tax.is_consistent(pred)
    standard, constrained = confusion_counts(media_tax, [GOLD], [pred])
    assert standard == constrained


def _random_prediction(rng, tax):
    k = rng.randint(0, len(tax.labels))
    return set(rng.sample(tax.labels, k=k))


def test_inconsistent_prediction_can_score_equally(media_tax):
    # Equality of the variants does not imply consistency: the orphan
    # Documentary is not gold, so the path rule denies no credit.
    gold, pred = [{"Business"}], [{"Business", "Documentary"}]
    report = evaluate(media_tax, gold, pred)
    assert report.inconsistent_docs == 1
    assert report.c_micro_f1 == report.micro_f1 == pytest.approx(2 / 3)
    assert report.c_macro_f1 == report.macro_f1 == pytest.approx(1 / 6)


def test_dominance_on_random_matrices():
    rng = random.Random(67)
    for _ in range(60):
        tax = random_taxonomy(rng, rng.randint(3, 30))
        gold = [random_consistent_labels(rng, tax) for _ in range(rng.randint(1, 8))]
        pred = [_random_prediction(rng, tax) for _ in gold]
        report = evaluate(tax, gold, pred)
        assert report.c_micro_f1 <= report.micro_f1 + 1e-15
        assert report.c_macro_f1 <= report.macro_f1 + 1e-15
        if all(tax.is_consistent(p) for p in pred):
            assert report.c_micro_f1 == report.micro_f1
            assert report.c_macro_f1 == report.macro_f1


def _reference_counts(tax, gold, pred):
    """Per-label counts by the literal definitions: a gold prediction earns
    constrained credit only when every label in ``tax.ancestors(label)`` is predicted."""
    standard, constrained = {}, {}
    for label in tax.labels:
        chain = tax.ancestors(label)
        hits = [p for g, p in zip(gold, pred) if label in g and label in p]
        credited = sum(all(a in p for a in chain) for p in hits)
        predicted = sum(label in p for p in pred)
        support = sum(label in g for g in gold)
        standard[label] = LabelCounts(len(hits), predicted - len(hits), support - len(hits))
        constrained[label] = LabelCounts(credited, predicted - credited, support - credited)
    return standard, constrained


def test_one_pass_counts_match_the_ancestor_definition():
    rng = random.Random(73)
    cases = []
    for _ in range(60):
        tax = random_taxonomy(rng, rng.randint(2, 30))
        gold = [random_consistent_labels(rng, tax) for _ in range(rng.randint(1, 8))]
        cases.append((tax, gold, [_random_prediction(rng, tax) for _ in gold]))
    # Deeper than the default recursion limit and named bottom-up, so name order is not
    # depth order; without its top, every label is denied.
    names = [f"c{i:04d}" for i in range(1500, 0, -1)]
    chain = Taxonomy.from_edges(list(zip(["root", *names], names)))
    cases.append((chain, [set(names)] * 2, [set(names), set(names[1:])]))
    inconsistent = documents = 0
    for tax, gold, pred in cases:
        standard, constrained = confusion_counts(tax, gold, pred)
        assert (standard.per_label, constrained.per_label) == _reference_counts(tax, gold, pred)
        report = evaluate(tax, gold, pred)
        assert report.inconsistent_docs == sum(not tax.is_consistent(p) for p in pred)
        inconsistent += report.inconsistent_docs
        documents += len(pred)
    assert inconsistent > documents / 2
    assert standard.totals == LabelCounts(2999, 0, 1)
    assert constrained.totals == LabelCounts(1500, 1499, 1500)


def test_evaluate_checks_each_document_once(monkeypatch):
    tax = parse_taxonomy((DEMO / "media.tsv").read_text(encoding="utf-8"))
    gold = [doc.labels for doc in read_documents(DEMO / "corpus.jsonl")]
    pred = [labels - {min(labels)} for labels in gold]  # drops a parent from d1, d3 and d5
    checked = []
    require = Taxonomy._require_labels

    def counted(self, names, *args):
        checked.append(names)
        return require(self, names, *args)

    monkeypatch.setattr(Taxonomy, "_require_labels", counted)
    report = evaluate(tax, gold, pred)
    assert len(checked) == len(gold) == 5
    assert report.inconsistent_docs == 3


def test_closure_equality():
    rng = random.Random(71)
    for _ in range(40):
        tax = random_taxonomy(rng, rng.randint(3, 30))
        gold = [random_consistent_labels(rng, tax) for _ in range(5)]
        pred = [tax.ancestor_closure(_random_prediction(rng, tax)) for _ in gold]
        report = evaluate(tax, gold, pred)
        assert report.c_micro_f1 == report.micro_f1
        assert report.c_macro_f1 == report.macro_f1
        assert report.inconsistent_docs == 0


def test_permutation_invariance(media_tax):
    gold = [GOLD, {"Entertainment"}, {"Business", "Company"}]
    pred = [ISOLATED_PRED, {"Business"}, {"Business", "Company"}]
    forward = evaluate(media_tax, gold, pred)
    backward = evaluate(media_tax, list(reversed(gold)), list(reversed(pred)))
    assert forward.micro_f1 == backward.micro_f1
    assert forward.macro_f1 == backward.macro_f1
    assert forward.c_micro_f1 == backward.c_micro_f1
    assert forward.c_macro_f1 == backward.c_macro_f1


def test_alignment_and_unknown_label_errors(media_tax):
    with pytest.raises(AlignmentError):
        confusion_counts(media_tax, [GOLD], [])
    with pytest.raises(UnknownLabelError):
        confusion_counts(media_tax, [{"Music"}], [set()])
    with pytest.raises(UnknownLabelError):
        confusion_counts(media_tax, [{"Root"}], [set()])


def test_report_serialization(media_tax):
    report = evaluate(media_tax, [GOLD], [ISOLATED_PRED])
    data = report.to_dict()
    assert set(data) == {
        "micro_f1", "macro_f1", "c_micro_f1", "c_macro_f1", "per_label", "inconsistent_docs",
    }
    assert data["inconsistent_docs"] == 1
    rows = {row["label"]: row for row in data["per_label"]}
    assert rows["Documentary"]["support"] == 1
    assert rows["Documentary"]["f1"] == 1.0
    assert rows["Documentary"]["c_f1"] == 0.0
    table = report.format_table()
    assert "0.7500" in table and "0.2500" in table


def test_metrics_bounded(media_tax):
    report = evaluate(media_tax, [GOLD], [ISOLATED_PRED])
    for value in (report.micro_f1, report.macro_f1, report.c_micro_f1, report.c_macro_f1):
        assert 0.0 <= value <= 1.0
