from __future__ import annotations

import random

import pytest

from conftest import random_consistent_labels, random_taxonomy
from treedecode import (
    AlignmentError,
    UnknownLabelError,
    confusion_counts,
    evaluate,
    macro_f1,
    micro_f1,
)

GOLD = {"Entertainment", "Movie", "Documentary", "Business", "Company"}
ISOLATED_PRED = {"Entertainment", "Documentary", "Company"}


def test_isolated_nodes_standard_counts(media_tax):
    counts = confusion_counts(media_tax, [GOLD], [ISOLATED_PRED], constrained=False)
    assert (counts.totals.tp, counts.totals.fp, counts.totals.fn) == (3, 0, 2)
    assert counts.per_label["Documentary"].tp == 1
    assert counts.per_label["Movie"].fn == 1


def test_isolated_nodes_constrained_counts(media_tax):
    # Documentary and Company are correct but their parents are missing, so
    # both are denied: still predictions (fp) and still unmet gold (fn).
    counts = confusion_counts(media_tax, [GOLD], [ISOLATED_PRED], constrained=True)
    assert (counts.totals.tp, counts.totals.fp, counts.totals.fn) == (1, 2, 4)
    assert counts.per_label["Entertainment"].tp == 1
    assert counts.per_label["Documentary"].fp == 1
    assert counts.per_label["Documentary"].fn == 1


def test_isolated_nodes_micro_values(media_tax):
    standard = confusion_counts(media_tax, [GOLD], [ISOLATED_PRED], constrained=False)
    constrained = confusion_counts(media_tax, [GOLD], [ISOLATED_PRED], constrained=True)
    assert micro_f1(standard) == 0.75
    assert micro_f1(constrained) == 0.25


def test_isolated_nodes_macro_values(media_tax):
    # Action never occurs and contributes F1 = 0 to the average.
    standard = confusion_counts(media_tax, [GOLD], [ISOLATED_PRED], constrained=False)
    constrained = confusion_counts(media_tax, [GOLD], [ISOLATED_PRED], constrained=True)
    assert macro_f1(standard) == pytest.approx(0.5, abs=1e-15)
    assert macro_f1(constrained) == pytest.approx(1 / 6, abs=1e-15)


def test_perfect_predictions(media_tax):
    report = evaluate(media_tax, [GOLD, {"Entertainment"}], [set(GOLD), {"Entertainment"}])
    assert report.micro_f1 == 1.0
    assert report.c_micro_f1 == 1.0
    assert report.inconsistent_docs == 0


def test_empty_prediction(media_tax):
    for constrained in (False, True):
        counts = confusion_counts(media_tax, [GOLD], [set()], constrained=constrained)
        assert (counts.totals.tp, counts.totals.fp, counts.totals.fn) == (0, 0, len(GOLD))


def test_consistent_predictions_make_modes_equal(media_tax):
    pred = {"Entertainment", "Movie", "Business"}
    assert media_tax.is_consistent(pred)
    standard = confusion_counts(media_tax, [GOLD], [pred], constrained=False)
    constrained = confusion_counts(media_tax, [GOLD], [pred], constrained=True)
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
