"""Golden report bytes: the exact text of ``validate``, ``evaluate`` and ``stats`` on the demo data.

The other CLI tests parse the reports, so key order, indentation and float
text are pinned only here. A change meant to move a report edits the
expected text below and says why in the change log.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from treedecode import write_jsonl
from treedecode.cli import main

DATA = Path(__file__).resolve().parent.parent / "demos" / "data"
TAXONOMY, CORPUS = str(DATA / "media.tsv"), str(DATA / "corpus.jsonl")

# A cycle, a second parent, a repeated edge and a line without a tab, added to the demo tree.
BROKEN_LINES = "Movie\tEntertainment\nBusiness\tCompany\nRoot\t\n"

# One prediction per demo document: d1 skips Documentary's parents, so constrained F1 denies it.
PREDICTIONS = {
    "d1": ["Documentary", "Business", "Company"],
    "d2": ["Entertainment", "Movie"],
    "d3": ["Business", "Company"],
    "d4": ["Entertainment", "Movie", "Action"],
    "d5": [],
}

VALID = b"""\
{
  "ok": true,
  "issues": []
}
"""

INVALID = b"""\
{
  "ok": false,
  "issues": [
    {
      "code": "EMPTY",
      "message": "line 10: expected parent<TAB>child, got an empty child name"
    },
    {
      "code": "DUPLICATE_EDGE",
      "message": "duplicate edge 'Business' -> 'Company'"
    },
    {
      "code": "MULTIPLE_PARENTS",
      "message": "'Entertainment' has parents ['Movie', 'Root']"
    },
    {
      "code": "CYCLE",
      "message": "cycle involving ['Action', 'Documentary', 'Entertainment', 'Movie']"
    }
  ]
}
"""

TABLE = b"""\
metric        standard  constrained
micro_f1        0.7826       0.6957
macro_f1        0.8167       0.6500
inconsistent predicted documents: 1
"""

METRICS = b"""\
{
  "micro_f1": 0.782608695652174,
  "macro_f1": 0.8166666666666665,
  "c_micro_f1": 0.6956521739130435,
  "c_macro_f1": 0.65,
  "per_label": [
    {
      "label": "Action",
      "f1": 1.0,
      "c_f1": 1.0,
      "support": 1
    },
    {
      "label": "Business",
      "f1": 0.8,
      "c_f1": 0.8,
      "support": 3
    },
    {
      "label": "Company",
      "f1": 0.8,
      "c_f1": 0.8,
      "support": 3
    },
    {
      "label": "Documentary",
      "f1": 1.0,
      "c_f1": 0.0,
      "support": 1
    },
    {
      "label": "Entertainment",
      "f1": 0.8,
      "c_f1": 0.8,
      "support": 3
    },
    {
      "label": "Movie",
      "f1": 0.5,
      "c_f1": 0.5,
      "support": 2
    }
  ],
  "inconsistent_docs": 1
}
"""

STATS = b"""\
{
  "label_count": 6,
  "depth": 3,
  "avg_labels": 2.6,
  "split_sizes": {
    "train": 5,
    "test": 5
  }
}
"""


def run(capsysbinary, *argv):
    code = main(list(argv))
    captured = capsysbinary.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "broken, expected", [(False, (0, VALID, b"")), (True, (1, INVALID, b""))], ids=["valid", "invalid"]
)
def test_validate_report_bytes(broken, expected, tmp_path, capsysbinary):
    taxonomy = TAXONOMY
    if broken:
        taxonomy = tmp_path / "broken.tsv"
        taxonomy.write_bytes((DATA / "media.tsv").read_bytes() + BROKEN_LINES.encode())
    assert run(capsysbinary, "validate", "--taxonomy", str(taxonomy)) == expected


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "output"])
def test_evaluate_report_bytes(to_file, tmp_path, capsysbinary):
    predictions, report = tmp_path / "pred.jsonl", tmp_path / "report.json"
    write_jsonl(predictions, [{"id": doc_id, "labels": labels} for doc_id, labels in PREDICTIONS.items()])
    argv = ["evaluate", "--taxonomy", TAXONOMY, "--gold", CORPUS, "--predictions", str(predictions)]
    if to_file:
        assert run(capsysbinary, *argv, "--output", str(report)) == (0, TABLE, b"")
        assert report.read_bytes() == METRICS
    else:
        assert run(capsysbinary, *argv) == (0, TABLE + METRICS, b"")
        assert not report.exists()


def test_stats_report_bytes(capsysbinary):
    argv = ["stats", "--taxonomy", TAXONOMY, "--split", f"train={CORPUS}", "--split", f"test={CORPUS}"]
    assert run(capsysbinary, *argv) == (0, STATS, b"")
