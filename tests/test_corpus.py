from __future__ import annotations

import json

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


def test_records_are_exact_document_records(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text(
        '{"id": "a", "text": "t", "labels": ["A", "B"]}\n{"id": "b"}\n'
        '{"id": "c", "labels": []}\n{"id": "d", "text": "u"}\n'
    )
    expected = [
        DocumentRecord(id="a", text="t", labels=frozenset({"A", "B"})),
        DocumentRecord(id="b"),
        DocumentRecord(id="c", labels=frozenset()),
        DocumentRecord(id="d", text="u"),
    ]
    docs = read_documents(path)
    assert [type(doc) for doc in docs] == [DocumentRecord] * 4
    assert [doc._asdict() for doc in docs] == [doc._asdict() for doc in expected]


def test_blank_lines_skipped(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d1", "text": "x"}\n\n \t \n\t\n{"id": "d2", "text": "y"}\n  \n')
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


# Each labels value, and what its error says.
LABEL_ERRORS = {
    '"AB"': "not a list",
    '{"A": 1}': "not a list",
    "3": "not a list",
    '["A", null]': "not a list",
    '["A", 3]': "not a list",
    '["B", "A", "A", "C", "C", "B"]': "record 1 repeats label 'A'",  # the first to repeat an earlier one
}


@pytest.mark.parametrize("labels", LABEL_ERRORS)
def test_labels_must_be_a_list(tmp_path, labels):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "d1", "labels": %s}\n' % labels)
    with pytest.raises(CorpusFormatError, match=LABEL_ERRORS[labels]):
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


# A line is parsed by the JSON scanner, and again by json.loads wherever the scanner does
# not take the whole line: either way it reads as json.loads reads it.
SCANNED_LINES = {
    "leading-spaces": '  {"id": "a"}',
    "leading-tab": '\t{"id": "a"}',
    "trailing-spaces-and-tabs": '{"id": "a"} \t ',
    "surrounding-whitespace": ' \t{"id": "a", "labels": ["A"]}\t ',
    "bom": '\ufeff{"id": "a"}',
    "extra-data": '{"id": "a"} x',
    "nan-and-infinity": '{"id": "a", "x": NaN, "y": Infinity, "z": -Infinity}',
    "repeated-key": '{"id": "a", "id": "b", "id": "c"}',
    "bare-number": "3",
    "long-integer": '{"id": "a", "n": ' + "7" * 5000 + "}",
    "deep-nesting": "[" * 100_000,
    # Whitespace that JSON does not allow: such a line is not blank, so it is bad JSON.
    "form-feed-only": "\x0c",
    "vertical-tab-only": "\x0b",
    "file-separator-only": "\x1c",
    "next-line-only": "\x85",
    "no-break-space-only": "\xa0",
    "line-separator-only": "\u2028",
    "spaces-around-a-form-feed": " \x0c\t",
}


@pytest.mark.parametrize("line", SCANNED_LINES.values(), ids=SCANNED_LINES)
def test_a_line_reads_as_json_loads_reads_it(tmp_path, line):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "first"}\n' + line + "\n", encoding="utf-8")
    try:
        expected = json.loads(line)
    except (ValueError, RecursionError) as err:
        with pytest.raises(CorpusFormatError) as caught:
            read_jsonl(path)
        assert str(caught.value) == f"{path}:2: bad JSON ({err})"
        return
    if isinstance(expected, dict):
        assert repr(read_jsonl(path)) == repr([{"id": "first"}, expected])  # NaN != NaN
    else:
        with pytest.raises(CorpusFormatError, match=r"corpus\.jsonl:2: expected a JSON object$"):
            read_jsonl(path)


def test_json_loads_runs_only_where_the_scanner_stops_short(tmp_path, monkeypatch):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "labels": []}\n  {"id": "b"}\n\n{"id": "c"} \n{"id": "d"}\n')
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda line: calls.append(line) or loads(line))
    assert [row["id"] for row in read_jsonl(path)] == ["a", "b", "c", "d"]
    assert calls == ['  {"id": "b"}', '{"id": "c"} ']
