"""The public records keep one contract: keyword construction with defaults, the repr text,
read-only fields, and equal records that compare equal and hash alike."""

from __future__ import annotations

import copy

import pytest

from treedecode import (
    ConfusionCounts,
    DatasetStats,
    DecodedSequence,
    DecoderState,
    DocumentRecord,
    Issue,
    LabelCounts,
    MetricsReport,
    SequenceReport,
    ValidationReport,
)
from treedecode.metrics import PerLabelRow

ROW = PerLabelRow(label="A", f1=0.5, c_f1=0.25, support=2)

# name: (class, the keywords given, the defaults the rest take, the repr)
CASES = {
    "DocumentRecord": (
        DocumentRecord, {"id": "a"}, {"text": "", "labels": None},
        "DocumentRecord(id='a', text='', labels=None)",
    ),
    "DecoderState": (
        DecoderState, {"stack": ("Root", "A"), "visited": frozenset({"A"})}, {"terminal": False},
        "DecoderState(stack=('Root', 'A'), visited=frozenset({'A'}), terminal=False)",
    ),
    "DecodedSequence": (
        DecodedSequence, {"tokens": ("Root", "A", "POP"), "labels": frozenset({"A"}), "logprob": -0.5}, {},
        "DecodedSequence(tokens=('Root', 'A', 'POP'), labels=frozenset({'A'}), logprob=-0.5)",
    ),
    "SequenceReport": (
        SequenceReport, {"ok": True}, {"position": None, "code": None},
        "SequenceReport(ok=True, position=None, code=None)",
    ),
    "LabelCounts": (LabelCounts, {}, {"tp": 0, "fp": 0, "fn": 0}, "LabelCounts(tp=0, fp=0, fn=0)"),
    "ConfusionCounts": (
        ConfusionCounts, {"per_label": {"A": LabelCounts(1, 2, 3)}}, {},
        "ConfusionCounts(per_label={'A': LabelCounts(tp=1, fp=2, fn=3)})",
    ),
    "PerLabelRow": (
        PerLabelRow, {"label": "A", "f1": 0.5, "c_f1": 0.25, "support": 2}, {},
        "PerLabelRow(label='A', f1=0.5, c_f1=0.25, support=2)",
    ),
    "MetricsReport": (
        MetricsReport,
        {"micro_f1": 0.5, "macro_f1": 0.25, "c_micro_f1": 0.5, "c_macro_f1": 0.0, "per_label": (ROW,),
         "inconsistent_docs": 1},
        {},
        "MetricsReport(micro_f1=0.5, macro_f1=0.25, c_micro_f1=0.5, c_macro_f1=0.0, "
        "per_label=(PerLabelRow(label='A', f1=0.5, c_f1=0.25, support=2),), inconsistent_docs=1)",
    ),
    "Issue": (Issue, {"code": "CYCLE", "message": "m"}, {}, "Issue(code='CYCLE', message='m')"),
    "ValidationReport": (ValidationReport, {}, {"issues": ()}, "ValidationReport(issues=())"),
    "DatasetStats": (
        DatasetStats, {"label_count": 6, "depth": 3, "avg_labels": 2.5, "split_sizes": {"train": 2}}, {},
        "DatasetStats(label_count=6, depth=3, avg_labels=2.5, split_sizes={'train': 2})",
    ),
}
# A dict field makes a record unhashable, as it makes a tuple holding one.
UNHASHABLE = {"ConfusionCounts", "DatasetStats"}


@pytest.mark.parametrize("name", CASES)
def test_keyword_construction_fills_the_defaults(name):
    cls, given, defaults, _ = CASES[name]
    record = cls(**given)
    fields = {**given, **defaults}
    assert {field: getattr(record, field) for field in fields} == fields
    assert record == cls(**fields) == cls(*fields.values())


@pytest.mark.parametrize("name", CASES)
def test_repr(name):
    cls, given, _, text = CASES[name]
    assert repr(cls(**given)) == text


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned(name):
    cls, given, defaults, _ = CASES[name]
    record = cls(**given)
    for field in {**given, **defaults}:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))


@pytest.mark.parametrize("name", CASES)
def test_equal_records_compare_equal_and_hash_alike(name):
    cls, given, _, _ = CASES[name]
    record, twin = cls(**given), cls(**copy.deepcopy(given))
    assert record == twin and not record != twin
    if name in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
