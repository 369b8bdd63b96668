"""Micro/Macro F1 and their path-constrained variants.

The path-constrained variants judge a predicted label "true" only when
every ancestor of that label (root excluded) was also predicted for the
same document: a correct leaf hanging off a missed parent earns no
credit. Denied predictions still count as predictions, so the
predicted-positive and gold-positive totals are unchanged and the
constrained scores can never exceed the standard ones.

The root is excluded from every computation. Labels with no gold or
predicted occurrences contribute F1 = 0 to the macro average (they are
not skipped).
"""

from __future__ import annotations

import json
from collections.abc import Sequence, Set
from dataclasses import dataclass

from .errors import AlignmentError, UnknownLabelError
from .taxonomy import Taxonomy


@dataclass(frozen=True)
class LabelCounts:
    tp: int = 0
    fp: int = 0
    fn: int = 0

    def f1(self) -> float:
        denom = 2 * self.tp + self.fp + self.fn
        return 2 * self.tp / denom if denom else 0.0


@dataclass(frozen=True)
class ConfusionCounts:
    """Per-label true/false positive/negative tallies plus pooled totals."""

    per_label: dict[str, LabelCounts]

    @property
    def totals(self) -> LabelCounts:
        return LabelCounts(
            tp=sum(c.tp for c in self.per_label.values()),
            fp=sum(c.fp for c in self.per_label.values()),
            fn=sum(c.fn for c in self.per_label.values()),
        )


def confusion_counts(
    tax: Taxonomy,
    gold: Sequence[Set[str]],
    pred: Sequence[Set[str]],
    constrained: bool = False,
) -> ConfusionCounts:
    """Tally confusion counts over index-aligned gold/predicted label sets.

    In constrained mode a predicted label earns tp credit only if it is
    gold AND all its ancestors are predicted in the same document.
    """
    if len(gold) != len(pred):
        raise AlignmentError(f"{len(gold)} gold documents vs {len(pred)} predictions")
    tp = {label: 0 for label in tax.labels}
    fp = dict(tp)
    fn = dict(tp)
    for gold_doc, pred_doc in zip(gold, pred):
        for label in gold_doc | pred_doc:
            if label not in tax or label == tax.root:
                raise UnknownLabelError(label)
        credited = {
            label for label in gold_doc & pred_doc
            if not constrained or all(a in pred_doc for a in tax.ancestors(label))
        }
        for label in credited:
            tp[label] += 1
        for label in pred_doc - credited:
            fp[label] += 1
        for label in gold_doc - credited:
            fn[label] += 1
    return ConfusionCounts(
        {label: LabelCounts(tp[label], fp[label], fn[label]) for label in tax.labels}
    )


def micro_f1(counts: ConfusionCounts) -> float:
    """2·ΣTP / (2·ΣTP + ΣFP + ΣFN), 0 by convention when everything is empty."""
    return counts.totals.f1()


def macro_f1(counts: ConfusionCounts) -> float:
    """Unweighted mean of per-label F1 over every taxonomy label."""
    if not counts.per_label:
        return 0.0
    return sum(c.f1() for c in counts.per_label.values()) / len(counts.per_label)


@dataclass(frozen=True)
class PerLabelRow:
    label: str
    f1: float
    c_f1: float
    support: int


@dataclass(frozen=True)
class MetricsReport:
    micro_f1: float
    macro_f1: float
    c_micro_f1: float
    c_macro_f1: float
    per_label: tuple[PerLabelRow, ...]
    inconsistent_docs: int

    def to_dict(self) -> dict:
        return {
            "micro_f1": self.micro_f1,
            "macro_f1": self.macro_f1,
            "c_micro_f1": self.c_micro_f1,
            "c_macro_f1": self.c_macro_f1,
            "per_label": [
                {"label": r.label, "f1": r.f1, "c_f1": r.c_f1, "support": r.support}
                for r in self.per_label
            ],
            "inconsistent_docs": self.inconsistent_docs,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

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
    """Compute standard and path-constrained metrics for aligned label sets."""
    standard = confusion_counts(tax, gold, pred, constrained=False)
    constrained = confusion_counts(tax, gold, pred, constrained=True)
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
        inconsistent_docs=sum(1 for p in pred if not tax.is_consistent(p)),
    )
