"""Seeded fuzz of the CLI: malformed input ends in exit code 0, 1 or 2, never a traceback.

Exit code 1 is a domain error, written to stderr as JSON lines only.

Each case mutates one valid input file (a TSV taxonomy, a JSONL corpus or
predictions file, a bigram model file) by one of: truncation, byte flips,
bytes that are not UTF-8, deep nesting, values of the wrong type and huge
numbers. Every case runs the commands that read that file in process,
through ``cli.main``, so an exception that would reach the user as a
traceback fails the case here.
"""

from __future__ import annotations

import json
import random

import pytest

from conftest import MEDIA_EDGES
from treedecode import fit_bigram_scorer, parse_taxonomy
from treedecode.cli import main

CASES = 10  # per file kind and mutation

CORPUS = [
    {"id": "d1", "text": "a film", "labels": ["Entertainment", "Movie", "Documentary"]},
    {"id": "d2", "text": "a firm", "labels": ["Business", "Company"]},
    {"id": "d3", "text": "", "labels": ["Entertainment"]},
]
PREDICTIONS = [
    {"id": "d1", "sequence": ["Root", "Entertainment", "POP"], "labels": ["Entertainment"]},
    {"id": "d2", "sequence": "Root Business Company POP POP", "labels": ["Business", "Company"],
     "logprob": -1.5},
    {"id": "d3", "sequence": "Root", "labels": []},
]
WRONG_TYPES = [None, 0, -1, 1.5, True, "", "x", "Root", "POP", [], ["x"], [7], {}, {"a": 1}]
HUGE_NUMBERS = [
    "1" * 5000, "1" + "0" * 400, "-" + "9" * 400, str(2**64), "1e999", "-1e999", "1e-400", "NaN",
    "Infinity",
]
SENTINEL = "@@fuzz@@"


def _jsonl(rows: list[dict]) -> bytes:
    return "".join(json.dumps(row) + "\n" for row in rows).encode()


def _valid_files() -> dict[str, bytes]:
    tax = parse_taxonomy(MEDIA_EDGES)
    model = fit_bigram_scorer(tax, ((row["text"], row["labels"]) for row in CORPUS))
    return {
        "taxonomy": MEDIA_EDGES.encode(),
        "corpus": _jsonl(CORPUS),
        "predictions": _jsonl(PREDICTIONS),
        "model": json.dumps(model.to_dict(), sort_keys=True, indent=2).encode(),
    }


VALID = _valid_files()


# -- mutations: (rng, kind, valid bytes) -> bytes ------------------------------


def truncation(rng, kind, data):
    return data[: rng.randrange(len(data))]


def byte_flips(rng, kind, data):
    out = bytearray(data)
    for _ in range(rng.randint(1, 4)):
        out[rng.randrange(len(out))] ^= rng.randint(1, 255)
    return bytes(out)


def not_utf8(rng, kind, data):
    at = rng.randrange(len(data) + 1)
    return data[:at] + rng.choice([b"\xff", b"\x80", b"\xc3\x28", b"\xed\xa0\x80", b"\xf8\x88"]) + data[at:]


def _json_locations(value, locations):
    """Every (container, key) pair inside a JSON value, depth first."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        locations.append((value, key))
        _json_locations(child, locations)
    return locations


def _replace_json_value(rng, kind, data, raw: str) -> bytes:
    """Put the JSON text ``raw`` in place of one value (or one whole record) of a JSON file."""
    if kind == "model":
        documents = [json.loads(data)]
    else:
        documents = [json.loads(line) for line in data.decode().splitlines()]
    index = rng.randrange(len(documents))
    holder = [documents[index]]
    location = rng.choice(_json_locations(holder, []))
    location[0][location[1]] = SENTINEL
    documents[index] = holder[0]
    texts = [json.dumps(document).replace(json.dumps(SENTINEL), raw) for document in documents]
    return ("\n".join(texts) + "\n").encode()


def deep_nesting(rng, kind, data):
    depth = rng.choice([50, 5_000, 100_000])
    if kind == "taxonomy":
        chain = "".join(f"c{i}\tc{i + 1}\n" for i in range(min(depth, 300)))
        return data + f"Business\tc0\n{chain}".encode()
    closed = rng.random() < 0.5
    return _replace_json_value(rng, kind, data, "[" * depth + ("]" * depth if closed else ""))


def wrong_types(rng, kind, data):
    if kind == "taxonomy":
        lines = data.decode().splitlines()
        at = rng.randrange(len(lines))
        parent, child = lines[at].split("\t")
        lines[at] = rng.choice([
            f"{parent}\t{child}\textra", f"{parent}\t", f"\t{child}", parent, f"{parent}\tPOP",
            f"<eos>\t{child}", f"{parent}\ta b", f"{child}\t{parent}", f"{parent}\t{parent}",
            f"{parent}\t{child}\n{parent}\t{child}", "# only a comment", "",
        ])
        return ("\n".join(lines) + "\n").encode()
    return _replace_json_value(rng, kind, data, json.dumps(rng.choice(WRONG_TYPES)))


def huge_numbers(rng, kind, data):
    if kind == "taxonomy":
        lines = data.decode().splitlines()
        at = rng.randrange(len(lines))
        parent, _ = lines[at].split("\t")
        lines[at] = f"{parent}\t{rng.choice(HUGE_NUMBERS)}"
        return ("\n".join(lines) + "\n").encode()
    return _replace_json_value(rng, kind, data, rng.choice(HUGE_NUMBERS))


MUTATIONS = (truncation, byte_flips, not_utf8, deep_nesting, wrong_types, huge_numbers)


def _json_object(line: str) -> bool:
    try:
        return isinstance(json.loads(line), dict)
    except ValueError:
        return False


def _commands(kind: str, path: str, valid: dict[str, str], out: str) -> list[list[str]]:
    """Every command that reads a file of this kind, with the other inputs valid."""
    files = dict(valid, **{kind: path})
    tax = ["--taxonomy", files["taxonomy"]]
    decode = ["decode", *tax, "--input", files["corpus"], "--output", out]
    evaluate = ["evaluate", *tax, "--gold", files["corpus"], "--predictions", files["predictions"]]
    linearize = ["linearize", *tax, "--input", files["corpus"], "--output", out]
    postprocess = ["postprocess", *tax, "--input", files["predictions"], "--output", out]
    delinearize = ["delinearize", *tax, "--input", files["predictions"], "--output", out]
    stats = ["stats", *tax, "--split", f"train={files['corpus']}"]
    return {
        "taxonomy": [["validate", *tax], ["fit", *tax, "--input", files["corpus"], "--output", out],
                     decode, evaluate, linearize, postprocess, delinearize, stats],
        "corpus": [["fit", *tax, "--input", files["corpus"], "--output", out], decode, evaluate,
                   linearize, stats],
        "predictions": [evaluate, postprocess, delinearize],
        "model": [[*decode, "--scorer", "bigram", "--model", files["model"]]],
    }[kind]


@pytest.mark.parametrize("mutation", MUTATIONS, ids=[m.__name__ for m in MUTATIONS])
@pytest.mark.parametrize("kind", ["taxonomy", "corpus", "predictions", "model"])
def test_malformed_input_never_ends_in_a_traceback(kind, mutation, tmp_path, capsys):
    valid = {}
    for name, data in VALID.items():
        valid[name] = str(tmp_path / name)
        (tmp_path / name).write_bytes(data)
    rng = random.Random(f"{kind}/{mutation.__name__}")
    fuzzed = tmp_path / "fuzzed"
    for case in range(CASES):
        fuzzed.write_bytes(mutation(rng, kind, VALID[kind]))
        for argv in _commands(kind, str(fuzzed), valid, str(tmp_path / "out")):
            try:
                code = main(argv)
            except Exception as err:  # the console script would print this as a traceback
                raise AssertionError(f"case {case}, {argv}: {err!r}") from err
            err = capsys.readouterr().err
            assert code in (0, 1, 2), (case, argv, err)
            assert "Traceback" not in err, (case, argv, err)
            assert code != 1 or all(map(_json_object, err.splitlines())), (case, argv, err)
