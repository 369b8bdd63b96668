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


# Lines end at "\n", "\r\n" or "\r" (universal newlines, the taxonomy's rule too), and at
# nothing else: str.splitlines would also split at the characters below.


@pytest.mark.parametrize("char", ["\u2028", "\u2029", "\x85"], ids=["U+2028", "U+2029", "U+0085"])
def test_a_unicode_line_separator_stays_inside_its_record(tmp_path, char):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(('{"id": "a", "text": "x%sy"}\n{"id": "b"}\n' % char).encode())
    assert read_jsonl(path) == [{"id": "a", "text": f"x{char}y"}, {"id": "b"}]


@pytest.mark.parametrize("char", ["\x0b", "\x0c", "\x1c"], ids=["VT", "FF", "FS"])
def test_a_control_separator_stays_inside_its_record(tmp_path, char):
    # JSON forbids the raw character in a string: the whole line is one bad record.
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(('{"id": "a"}\n{"id": "b", "text": "x%sy"}\n' % char).encode())
    with pytest.raises(CorpusFormatError, match=r"corpus\.jsonl:2: bad JSON \(Invalid control character"):
        read_jsonl(path)


def test_crlf_and_cr_end_lines(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"id": "a"}\r\n{"id": "b"}\r{"id": "c"}\n\r\n{"id": "d"}')
    assert [row["id"] for row in read_jsonl(path)] == ["a", "b", "c", "d"]


def test_a_carriage_return_between_tokens_ends_the_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(b'{"id": "a"}\r\n\r\n{"id": "b",\r"text": "x"}\n')
    with pytest.raises(CorpusFormatError, match=r"corpus\.jsonl:3: bad JSON \(Expecting property name"):
        read_jsonl(path)
