"""UTF-8 JSON-lines corpus and prediction files.

A corpus record is ``{"id": ..., "text": ..., "labels": [...]}``; text
may be empty or absent and labels may be absent for decode-only input.
Ids must be strings, unique within a file, text a string and labels,
when present, a JSON list of strings that names no label twice. Prediction
files use the same record shape, with labels required and text ignored.

Files are read one line at a time (``iter_jsonl``, ``iter_documents``;
``read_jsonl`` and ``read_documents`` are lists of them). A line that is empty
or holds only spaces and tabs, the whitespace JSON allows, is blank and skipped.
Any other line, even one of other whitespace such as a form feed, is parsed by
one call of the JSON decoder's scanner, which takes a value starting at the
line's first character. Only when the scanner raises or stops before the line's
end (leading or trailing whitespace, a BOM, extra data, a bad value) is the line
parsed again by ``json.loads``, whose object or error text is then the result,
so every line reads exactly as ``json.loads`` reads it.
Streamed output goes through ``buffered_output``, which writes only once its
writer succeeds.
"""

from __future__ import annotations

import io
import json
import os
from collections.abc import Iterable, Iterator
from contextlib import contextmanager
from itertools import repeat
from pathlib import Path
from typing import NamedTuple, TextIO

from .errors import CorpusFormatError


class DocumentRecord(NamedTuple):
    id: str
    text: str = ""
    labels: frozenset[str] | None = None


# The value scanner behind ``json.loads``, with its defaults; it raises StopIteration
# when no value starts at the index.
_scan_once = json.JSONDecoder().scan_once


def iter_jsonl(path: str | Path) -> Iterator[dict]:
    """Yield the JSON object of each non-blank line of a UTF-8 file, reading one line at a time.

    A blank line is empty or holds only spaces and tabs. Lines end at ``\\n``, ``\\r\\n`` or
    ``\\r`` (universal newlines), never at another line separator. A line that is not UTF-8
    or not a JSON object raises CorpusFormatError when it is reached, so the first fault in
    the file is the one reported.
    """
    # Bytes that are not UTF-8 become lone surrogates, which valid UTF-8 never decodes to,
    # so each line is checked by itself instead of failing a whole buffer at once.
    with open(path, encoding="utf-8", errors="surrogateescape") as handle:
        for lineno, line in enumerate(handle, start=1):
            if not line.isascii():
                try:
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                except UnicodeDecodeError as err:
                    raise CorpusFormatError(f"{path}:{lineno}: not UTF-8 ({err})") from None
            line = line.rstrip("\n")  # JSON error positions count within the line
            if not line.strip(" \t"):  # JSON whitespace; a universal-newline line holds no \r
                continue
            try:
                try:
                    row, end = _scan_once(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = None
                if end != len(line):  # json.loads words the fault, or skips the whitespace
                    row = json.loads(line)
            except (ValueError, RecursionError) as err:  # bad JSON, too long an integer, too deep
                raise CorpusFormatError(f"{path}:{lineno}: bad JSON ({err})") from None
            if not isinstance(row, dict):
                raise CorpusFormatError(f"{path}:{lineno}: expected a JSON object")
            yield row


def read_jsonl(path: str | Path) -> list[dict]:
    return list(iter_jsonl(path))


@contextmanager
def buffered_output(target: str | Path | TextIO) -> Iterator[TextIO]:
    """A text buffer that is written to ``target`` only if the block raises nothing.

    ``target`` is a path, written with ``open(path, "w")`` at the end, or an open text
    stream such as ``sys.stdout``. The text waits in memory, so on any error an existing
    file keeps its bytes, and a command may write the file it read.
    """
    buffer = io.StringIO()
    yield buffer
    if isinstance(target, (str, os.PathLike)):
        with open(target, "w", encoding="utf-8") as handle:
            handle.write(buffer.getvalue())
    else:
        target.write(buffer.getvalue())


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Write one JSON object per line, writing ``path`` only once every row is encoded."""
    with buffered_output(path) as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def records_with_ids(path: str | Path) -> Iterator[tuple[int, str, dict]]:
    """Yield (number from 1, id, record) per record; each id a string, unique in the file."""
    seen: set[str] = set()
    for index, row in enumerate(iter_jsonl(path), start=1):
        if "id" not in row:
            raise CorpusFormatError(f"{path}: record {index} has no id")
        doc_id = row["id"]
        if not isinstance(doc_id, str):
            raise CorpusFormatError(f"{path}: record {index} has id {doc_id!r:.60}, not a string")
        if doc_id in seen:
            raise CorpusFormatError(f"{path}: record {index} has duplicate id {doc_id!r}")
        seen.add(doc_id)
        yield index, doc_id, row


def required_labels(doc: DocumentRecord, source: str | None = None) -> frozenset[str]:
    """A record's labels, which must be present (``[]`` is an empty set); ``source`` names its file."""
    if doc.labels is None:
        where = "" if source is None else f" in {source}"
        raise CorpusFormatError(f"document {doc.id!r} has no labels{where}")
    return doc.labels


def iter_documents(path: str | Path) -> Iterator[DocumentRecord]:
    """Yield corpus or prediction records as they are read.

    Ids are strings, unique in the file; text is a string and labels a list of distinct strings.
    """
    for index, doc_id, row in records_with_ids(path):
        text = row.get("text", "")
        if not isinstance(text, str):
            raise CorpusFormatError(
                f"{path}: record {index} has text of type {type(text).__name__}, not a string"
            )
        labels = row.get("labels")
        if labels is not None:
            if not (isinstance(labels, list) and all(map(isinstance, labels, repeat(str)))):
                raise CorpusFormatError(
                    f"{path}: record {index} has labels {labels!r:.60}, not a list of strings"
                )
            label_set = frozenset(labels)
            if len(label_set) < len(labels):  # name the first label that repeats an earlier one
                seen: set[str] = set()
                repeated = next(label for label in labels if label in seen or seen.add(label))
                raise CorpusFormatError(f"{path}: record {index} repeats label {repeated!r}")
            labels = label_set
        yield DocumentRecord._make((doc_id, text, labels))


def read_documents(path: str | Path) -> list[DocumentRecord]:
    return list(iter_documents(path))
