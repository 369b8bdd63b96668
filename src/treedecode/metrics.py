"""Micro/Macro F1 and their path-constrained variants.

The path-constrained variants credit a correct predicted label only when
it is path-complete: its parent is the root or a path-complete predicted
label, so every ancestor (root excluded) was predicted for the same
document and a correct leaf hanging off a missed parent earns no credit.
Denied predictions still count as predictions, so the predicted-positive
and gold-positive totals are unchanged and the constrained scores can
never exceed the standard ones.

The root is excluded from every computation. Labels with no gold or
predicted occurrences contribute F1 = 0 to the macro average (they are
not skipped).
"""

from __future__ import annotations

from collections.abc import Sequence, Set
from typing import NamedTuple

from .errors import AlignmentError
from .taxonomy import Taxonomy


class LabelCounts(NamedTuple):
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0


class ConfusionCounts(NamedTuple):
    """Per-label true/false positive/negative tallies plus pooled totals."""

    per_label: dict[str, LabelCounts]

    @property
    def totals(self) -> LabelCounts:
        # Field by field; with no labels, zip yields nothing and every field keeps its default 0.
        return LabelCounts(*map(sum, zip(*self.per_label.values())))


def _tally(
    tax: Taxonomy, gold: Sequence[Set[str]], pred: Sequence[Set[str]]
) -> tuple[ConfusionCounts, ConfusionCounts, int]:
    """``confusion_counts``' pair and the number of inconsistent predicted sets, in one pass."""
    if len(gold) != len(pred):
        raise AlignmentError(f"{len(gold)} gold documents vs {len(pred)} predictions")
    tp = {label: 0 for label in tax.labels}
    fp, fn, denied = dict(tp), dict(tp), dict(tp)
    inconsistent = 0
    for gold_doc, pred_doc in zip(gold, pred):
        tax._require_labels(gold_doc | pred_doc)
        complete = {tax.root}
        for label in sorted(pred_doc, key=tax._depth.__getitem__):  # parents first
            if tax._parent[label] in complete:
                complete.add(label)
        inconsistent += len(complete) != len(pred_doc) + 1  # not closed under ancestors
        for label in gold_doc & pred_doc:
            tp[label] += 1
            denied[label] += label not in complete
        for label in pred_doc - gold_doc:
            fp[label] += 1
        for label in gold_doc - pred_doc:
            fn[label] += 1
    standard = {label: LabelCounts(tp[label], fp[label], fn[label]) for label in tax.labels}
    constrained = {label: LabelCounts(tp[label] - d, fp[label] + d, fn[label] + d) for label, d in denied.items()}
    return ConfusionCounts(standard), ConfusionCounts(constrained), inconsistent


def confusion_counts(
    tax: Taxonomy, gold: Sequence[Set[str]], pred: Sequence[Set[str]]
) -> tuple[ConfusionCounts, ConfusionCounts]:
    """Tally ``(standard, constrained)`` counts over index-aligned gold/predicted label sets.

    Both come from one pass. A gold prediction whose parent is neither the root nor a
    path-complete prediction is denied: the constrained counts move it from tp to fp and fn.
    A label that is unknown or the root raises UnknownLabelError, the first in name order.
    """
    return _tally(tax, gold, pred)[:2]


def micro_f1(counts: ConfusionCounts) -> float:
    """2·ΣTP / (2·ΣTP + ΣFP + ΣFN), 0 by convention when everything is empty."""
    return counts.totals.f1()


def macro_f1(counts: ConfusionCounts) -> float:
    """Unweighted mean of per-label F1 over every taxonomy label."""
    if not counts.per_label:
        return 0.0
    return sum(c.f1() for c in counts.per_label.values()) / len(counts.per_label)


class PerLabelRow(NamedTuple):
    label: str
    f1: float
    c_f1: float
    support: int


class MetricsReport(NamedTuple):
    micro_f1: float
    macro_f1: float
    c_micro_f1: float
    c_macro_f1: float
    per_label: tuple[PerLabelRow, ...]
    inconsistent_docs: int

    def to_dict(self) -> dict:
        # Replacing a key keeps its place, so the keys stay in field order.
        return {**self._asdict(), "per_label": [row._asdict() for row in self.per_label]}

    def format_table(self) -> str:
        """Four-decimal summary table for terminal output."""
        lines = [
            f"{'metric':<12} {'standard':>9} {'constrained':>12}",
            f"{'micro_f1':<12} {self.micro_f1:>9.4f} {self.c_micro_f1:>12.4f}",
            f"{'macro_f1':<12} {self.macro_f1:>9.4f} {self.c_macro_f1:>12.4f}",
            f"inconsistent predicted documents: {self.inconsistent_docs}",
        ]
        return "\n".join(lines)


def evaluate(tax: Taxonomy, gold: Sequence[Set[str]], pred: Sequence[Set[str]]) -> MetricsReport:
    """Compute standard and path-constrained metrics for aligned label sets, checking each once."""
    standard, constrained, inconsistent = _tally(tax, gold, pred)
    rows = tuple(
        PerLabelRow(
            label=label,
            f1=standard.per_label[label].f1(),
            c_f1=constrained.per_label[label].f1(),
            support=standard.per_label[label].tp + standard.per_label[label].fn,
        )
        for label in sorted(tax.labels)
    )
    return MetricsReport(
        micro_f1=micro_f1(standard),
        macro_f1=macro_f1(standard),
        c_micro_f1=micro_f1(constrained),
        c_macro_f1=macro_f1(constrained),
        per_label=rows,
        inconsistent_docs=inconsistent,
    )
