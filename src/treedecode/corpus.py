"""UTF-8 JSON-lines corpus and prediction files.

A corpus record is ``{"id": ..., "text": ..., "labels": [...]}``; text
may be empty or absent and labels may be absent for decode-only input.
Ids must be strings, unique within a file, text a string and labels,
when present, a JSON list of strings. Prediction files use the same record
shape, with labels required and text ignored.
"""

from __future__ import annotations

import json
from collections.abc import Iterable
from dataclasses import dataclass
from pathlib import Path

from .errors import CorpusFormatError


@dataclass(frozen=True)
class DocumentRecord:
    id: str
    text: str = ""
    labels: frozenset[str] | None = None


def read_jsonl(path: str | Path) -> list[dict]:
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as err:
        raise CorpusFormatError(f"{path}: not UTF-8 ({err})") from None
    rows = []
    for lineno, line in enumerate(lines, start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except (ValueError, RecursionError) as err:  # bad JSON, too long an integer, too deep
            raise CorpusFormatError(f"{path}:{lineno}: bad JSON ({err})") from None
        if not isinstance(row, dict):
            raise CorpusFormatError(f"{path}:{lineno}: expected a JSON object")
        rows.append(row)
    return rows


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for row in rows:
            handle.write(json.dumps(row) + "\n")


def record_id(path: str | Path, index: int, row: dict) -> str:
    """The id of the ``index``-th record (from 1); a missing or non-string id is an error."""
    if "id" not in row:
        raise CorpusFormatError(f"{path}: record {index} has no id")
    if not isinstance(row["id"], str):
        raise CorpusFormatError(f"{path}: record {index} has id {row['id']!r:.60}, not a string")
    return row["id"]


def read_documents(path: str | Path) -> list[DocumentRecord]:
    """Load corpus or prediction records: unique ids, string text, labels a list of strings."""
    documents = []
    seen: set[str] = set()
    for index, row in enumerate(read_jsonl(path), start=1):
        doc_id = record_id(path, index, row)
        if doc_id in seen:
            raise CorpusFormatError(f"{path}: record {index} has duplicate id {doc_id!r}")
        seen.add(doc_id)
        text = row.get("text", "")
        if not isinstance(text, str):
            raise CorpusFormatError(
                f"{path}: record {index} has text of type {type(text).__name__}, not a string"
            )
        labels = row.get("labels")
        if labels is not None and not (
            isinstance(labels, list) and all(isinstance(label, str) for label in labels)
        ):
            raise CorpusFormatError(
                f"{path}: record {index} has labels {labels!r:.60}, not a list of strings"
            )
        documents.append(
            DocumentRecord(
                id=doc_id, text=text, labels=None if labels is None else frozenset(labels)
            )
        )
    return documents
