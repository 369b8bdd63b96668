from __future__ import annotations

import pytest

from treedecode import CorpusFormatError, DocumentRecord, read_documents, read_jsonl, write_jsonl


def test_round_trip(tmp_path):
    path = tmp_path / "corpus.jsonl"
    rows = [
        {"id": "d1", "text": "alpha", "labels": ["A", "B"]},
        {"id": "d2", "text": "", "labels": []},
        {"id": "d3", "text": "gamma"},
    ]
    write_jsonl(path, rows)
    assert read_jsonl(path) == rows
    docs = read_documents(path)
    assert docs[0] == DocumentRecord(id="d1", text="alpha", labels=frozenset({"A", "B"}))
    assert docs[1].labels == frozenset()
    assert docs[2].labels is None


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d1", "text": "x"}\n\n{"id": "d2", "text": "y"}\n')
    assert [d.id for d in read_documents(path)] == ["d1", "d2"]


def test_duplicate_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d1"}\n{"id": "d1"}\n')
    with pytest.raises(CorpusFormatError, match="duplicate"):
        read_documents(path)


def test_missing_id(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"text": "x"}\n')
    with pytest.raises(CorpusFormatError, match="no id"):
        read_documents(path)


def test_bad_json(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d1"\n')
    with pytest.raises(CorpusFormatError, match="bad JSON"):
        read_jsonl(path)


def test_non_object_row(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text("[1, 2, 3]\n")
    with pytest.raises(CorpusFormatError, match="object"):
        read_jsonl(path)


@pytest.mark.parametrize("labels", ['"AB"', '{"A": 1}', "3", '["A", null]', '["A", 3]'])
def test_labels_must_be_a_list(tmp_path, labels):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d1", "labels": %s}\n' % labels)
    with pytest.raises(CorpusFormatError, match="not a list"):
        read_documents(path)
