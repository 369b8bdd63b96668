from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MEDIA_EDGES, TWO_PATH_RENDERED, UNIFORM_GREEDY_RENDERED
from treedecode import cli, decoding, read_jsonl, write_jsonl
from treedecode.errors import DecodeOverflowError
from treedecode.scorers import BigramScorer, UniformScorer
from treedecode.cli import main

ROOT = Path(__file__).resolve().parent.parent

GOLD_BY_ID = {
    "d1": ["Business", "Company", "Documentary", "Entertainment", "Movie"],
    "d2": ["Entertainment"],
    "d3": ["Business", "Company"],
}


@pytest.fixture
def tax_file(tmp_path):
    path = tmp_path / "media.tsv"
    path.write_text(MEDIA_EDGES)
    return str(path)


@pytest.fixture
def corpus_file(tmp_path):
    path = tmp_path / "corpus.jsonl"
    write_jsonl(
        path,
        [
            {"id": doc_id, "text": f"document {doc_id}", "labels": labels}
            for doc_id, labels in GOLD_BY_ID.items()
        ],
    )
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(tax_file, capsys):
    code, out, _ = run(capsys, "validate", "--taxonomy", tax_file)
    assert code == 0
    assert json.loads(out) == {"ok": True, "issues": []}


def test_validate_cycle(tmp_path, capsys):
    bad = tmp_path / "cycle.tsv"
    bad.write_text("A\tB\nB\tA\n")
    code, out, _ = run(capsys, "validate", "--taxonomy", str(bad))
    assert code == 1
    assert "CYCLE" in {issue["code"] for issue in json.loads(out)["issues"]}


def test_validate_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "validate", "--taxonomy", str(tmp_path / "nope.tsv"))
    assert code == 2
    assert "error" in err


def test_linearize_and_delinearize_round_trip(tax_file, corpus_file, tmp_path, capsys):
    sequences = tmp_path / "sequences.jsonl"
    code, _, _ = run(
        capsys, "linearize", "--taxonomy", tax_file, "--input", corpus_file,
        "--output", str(sequences),
    )
    assert code == 0
    rows = read_jsonl(sequences)
    assert rows[0] == {"id": "d1", "sequence": TWO_PATH_RENDERED}
    assert rows[1] == {"id": "d2", "sequence": "Root Entertainment POP"}

    labels_out = tmp_path / "labels.jsonl"
    code, _, _ = run(
        capsys, "delinearize", "--taxonomy", tax_file, "--input", str(sequences),
        "--output", str(labels_out),
    )
    assert code == 0
    assert {r["id"]: r["labels"] for r in read_jsonl(labels_out)} == GOLD_BY_ID


def test_linearize_inconsistent_requires_closure(tax_file, tmp_path, capsys):
    corpus = tmp_path / "inconsistent.jsonl"
    write_jsonl(corpus, [{"id": "x1", "text": "", "labels": ["Documentary", "Company"]}])
    code, _, err = run(capsys, "linearize", "--taxonomy", tax_file, "--input", str(corpus))
    assert code == 1
    message = "document 'x1': label set is not closed under ancestors; rerun with --closure"
    assert err == json.dumps({"error": "INCONSISTENT_LABELSET", "message": message}) + "\n"

    code, out, err = run(
        capsys, "linearize", "--taxonomy", tax_file, "--input", str(corpus), "--closure",
    )
    assert code == 0
    assert "repaired 1" in err
    assert json.loads(out.splitlines()[0])["sequence"] == TWO_PATH_RENDERED


def test_fit_is_deterministic(tax_file, corpus_file, tmp_path, capsys):
    first = tmp_path / "m1.json"
    second = tmp_path / "m2.json"
    assert run(capsys, "fit", "--taxonomy", tax_file, "--input", corpus_file, "--output", str(first))[0] == 0
    assert run(capsys, "fit", "--taxonomy", tax_file, "--input", corpus_file, "--output", str(second))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    model = json.loads(first.read_text())
    assert set(model) == {"alphabet", "counts"}


def test_fit_inconsistent_corpus_requires_closure(tax_file, tmp_path, capsys):
    rows = [
        {"id": "x1", "text": "", "labels": ["Documentary", "Company"]},
        {"id": "x2", "text": "", "labels": ["Entertainment"]},
    ]
    corpus, model = tmp_path / "inconsistent.jsonl", tmp_path / "m.json"
    write_jsonl(corpus, rows)
    fit = ["fit", "--taxonomy", tax_file, "--input", str(corpus), "--output", str(model)]
    code, _, err = run(capsys, *fit)
    assert code == 1
    assert json.loads(err)["error"] == "INCONSISTENT_LABELSET"
    assert not model.exists()

    code, _, err = run(capsys, *fit, "--closure")
    assert code == 0
    assert "repaired 1" in err
    closed, closed_model = tmp_path / "closed.jsonl", tmp_path / "closed.json"
    write_jsonl(closed, [{**rows[0], "labels": GOLD_BY_ID["d1"]}, rows[1]])
    assert run(capsys, "fit", "--taxonomy", tax_file, "--input", str(closed),
               "--output", str(closed_model))[0] == 0
    assert model.read_bytes() == closed_model.read_bytes()


@pytest.mark.parametrize("argv", [["fit"], ["decode", "--scorer", "oracle"]], ids=["fit", "decode-oracle"])
def test_a_bad_gold_set_is_reported_with_its_document(argv, tax_file, tmp_path, capsys):
    corpus, out = tmp_path / "corpus.jsonl", tmp_path / "out.json"
    rows = [{"id": "a", "labels": ["Entertainment"]}, {"id": "b", "labels": ["Documentary"]}]
    write_jsonl(corpus, [*rows, {"id": "c", "labels": ["Company"]}])  # c is bad too, but b comes first
    code, stdout, err = run(
        capsys, *argv, "--taxonomy", tax_file, "--input", str(corpus), "--output", str(out)
    )
    advice = "run treedecode postprocess on the gold file first" if argv[0] == "decode" else "rerun with --closure"
    message = f"label set is not closed under ancestors; {advice}"
    expected = {"error": "INCONSISTENT_LABELSET", "message": f"document 'b': {message}"}
    assert (code, stdout, err) == (1, "", json.dumps(expected) + "\n")
    assert not out.exists()


def test_fit_empty_corpus(tax_file, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    code, _, err = run(
        capsys, "fit", "--taxonomy", tax_file, "--input", str(empty),
        "--output", str(tmp_path / "m.json"),
    )
    assert code == 1
    assert json.loads(err.splitlines()[-1])["error"] == "EMPTY_CORPUS"


def test_decode_oracle_recovers_gold(tax_file, corpus_file, tmp_path, capsys):
    # Default beam width (4): oracle-scored decoding must reproduce gold.
    predictions = tmp_path / "pred.jsonl"
    code, _, err = run(
        capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file,
        "--output", str(predictions), "--scorer", "oracle",
    )
    assert code == 0
    rows = read_jsonl(predictions)
    assert {r["id"]: r["labels"] for r in rows} == GOLD_BY_ID
    assert rows[0]["sequence"] == TWO_PATH_RENDERED.split()
    assert all(r["logprob"] <= 0.0 for r in rows)
    summary = json.loads(err.splitlines()[-1])
    assert summary["documents"] == 3
    assert summary["inconsistent"] == 0
    assert summary["overflow"] == []


def test_decode_uniform_golden(tax_file, corpus_file, tmp_path, capsys):
    predictions = tmp_path / "pred.jsonl"
    code, _, _ = run(
        capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file,
        "--output", str(predictions), "--scorer", "uniform", "--beam", "1",
    )
    assert code == 0
    for row in read_jsonl(predictions):
        assert row["sequence"] == UNIFORM_GREEDY_RENDERED.split()


def test_decode_workers_accepts_only_one(tax_file, corpus_file, tmp_path, capsys):
    # --workers is kept only so that existing command lines parse: 1 changes nothing.
    plain, explicit = tmp_path / "plain.jsonl", tmp_path / "explicit.jsonl"
    decode = ["decode", "--taxonomy", tax_file, "--input", corpus_file, "--scorer", "oracle"]
    assert run(capsys, *decode, "--output", str(plain))[0] == 0
    assert run(capsys, *decode, "--output", str(explicit), "--workers", "1")[0] == 0
    assert plain.read_bytes() == explicit.read_bytes()


def test_decode_rejects_more_workers(tax_file, corpus_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["decode", "--taxonomy", tax_file, "--input", corpus_file,
              "--output", str(tmp_path / "pred.jsonl"), "--workers", "2"])
    assert excinfo.value.code == 2
    assert "--workers" in capsys.readouterr().err
    assert not (tmp_path / "pred.jsonl").exists()


def test_decode_bigram_pipeline(tax_file, corpus_file, tmp_path, capsys):
    model = tmp_path / "model.json"
    run(capsys, "fit", "--taxonomy", tax_file, "--input", corpus_file, "--output", str(model))
    predictions = tmp_path / "pred.jsonl"
    code, _, err = run(
        capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file,
        "--output", str(predictions), "--scorer", "bigram", "--model", str(model),
    )
    assert code == 0
    assert json.loads(err.splitlines()[-1])["inconsistent"] == 0
    assert len(read_jsonl(predictions)) == 3


def test_decode_bigram_requires_model(tax_file, corpus_file, capsys):
    code, _, err = run(
        capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file, "--scorer", "bigram",
    )
    assert code == 1
    assert "--model" in err


@pytest.mark.parametrize("scorer", ["uniform", "oracle"])
def test_decode_rejects_a_model_the_scorer_does_not_read(scorer, tax_file, corpus_file, tmp_path, capsys):
    # The model file is never opened: --model beside another scorer is a mistake, not a no-op.
    predictions = tmp_path / "pred.jsonl"
    code, out, err = run(capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file,
                         "--output", str(predictions), "--scorer", scorer,
                         "--model", str(tmp_path / "missing.json"))
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "ERROR" and "--model" in error["message"]
    assert not predictions.exists()


def test_decode_bigram_rejects_a_model_of_another_taxonomy(tmp_path, capsys):
    # Fitted on the labels {A, B}, the model must not decode the labels {X, Y}.
    fitted_on, other = tmp_path / "ab.tsv", tmp_path / "xy.tsv"
    fitted_on.write_text("Root\tA\nRoot\tB\n")
    other.write_text("Root\tX\nRoot\tY\n")
    corpus, model = tmp_path / "corpus.jsonl", tmp_path / "model.json"
    write_jsonl(corpus, [{"id": "d1", "text": "", "labels": ["A"]}])
    code, _, _ = run(capsys, "fit", "--taxonomy", str(fitted_on), "--input", str(corpus),
                     "--output", str(model))
    assert code == 0
    code, out, err = run(capsys, "decode", "--taxonomy", str(other), "--input", str(corpus),
                         "--scorer", "bigram", "--model", str(model))
    assert code == 1
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "MODEL_MISMATCH"
    assert "['A', 'B']" in error["message"] and "['X', 'Y']" in error["message"]


@pytest.mark.parametrize(
    "context",
    [pytest.param("Bogus", id="unknown-context"), pytest.param("<eos>", id="eos-context")],
)
def test_decode_bigram_rejects_a_count_row_after_a_token_fit_never_counts(context, tax_file, corpus_file,
                                                                          tmp_path, capsys):
    # fit counts transitions after the root, each label and POP; any other context is another model's.
    model = tmp_path / "model.json"
    code, _, _ = run(capsys, "fit", "--taxonomy", tax_file, "--input", corpus_file, "--output", str(model))
    assert code == 0
    data = json.loads(model.read_text())
    data["counts"][context] = {"Action": 3}
    model.write_text(json.dumps(data))
    predictions = tmp_path / "pred.jsonl"
    code, out, err = run(capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file,
                         "--output", str(predictions), "--scorer", "bigram", "--model", str(model))
    assert (code, out) == (1, "")
    error = json.loads(err)
    assert error["error"] == "MODEL_MISMATCH"
    assert repr([context]) in error["message"]
    assert not predictions.exists()


MEDIA_ALPHABET = ["Action", "Business", "Company", "Documentary", "Entertainment", "Movie", "<eos>", "POP"]


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"not json", id="not-json"),
        pytest.param(b"\xff\xfe{}", id="not-utf8"),
        pytest.param(["alphabet", "counts"], id="not-an-object"),
        pytest.param({"counts": {}}, id="no-alphabet"),
        pytest.param({"alphabet": MEDIA_ALPHABET}, id="no-counts"),
        pytest.param({"alphabet": "Action", "counts": {}}, id="alphabet-string"),
        pytest.param({"alphabet": [*MEDIA_ALPHABET, 7], "counts": {}}, id="alphabet-number"),
        pytest.param({"alphabet": [], "counts": {}}, id="alphabet-empty"),
        pytest.param({"alphabet": [*MEDIA_ALPHABET, "Action"], "counts": {}}, id="alphabet-repeated"),
        pytest.param({"alphabet": MEDIA_ALPHABET, "counts": []}, id="counts-list"),
        pytest.param({"alphabet": MEDIA_ALPHABET, "counts": {"Root": 3}}, id="row-number"),
        pytest.param({"alphabet": MEDIA_ALPHABET, "counts": {"Root": {"Movie": "3"}}}, id="count-string"),
        pytest.param({"alphabet": MEDIA_ALPHABET, "counts": {"Root": {"Movie": 1.5}}}, id="count-float"),
        pytest.param({"alphabet": MEDIA_ALPHABET, "counts": {"Root": {"Movie": -1}}}, id="count-negative"),
        pytest.param({"alphabet": MEDIA_ALPHABET, "counts": {"Root": {"Movie": True}}}, id="count-bool"),
        pytest.param(
            {"alphabet": MEDIA_ALPHABET, "counts": {"Root": {"Zebra": 1000, "Movie": 1}}},
            id="count-outside-alphabet",
        ),
        pytest.param(b'{"alphabet": ' + b"[" * 100_000, id="deep-nesting"),
        pytest.param(b'{"alphabet": [], "counts": {"Root": {"Movie": ' + b"1" * 5000 + b"}}}", id="int-digits"),
        pytest.param({"alphabet": MEDIA_ALPHABET, "counts": {"Root": {"Movie": 10**400}}}, id="count-huge"),
        pytest.param({"alphabet": MEDIA_ALPHABET, "counts": {"Root": {"Movie": 2**53}}}, id="count-2**53"),
    ],
)
def test_decode_bigram_rejects_a_malformed_model(content, tax_file, corpus_file, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    code, out, err = run(capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file,
                         "--scorer", "bigram", "--model", str(model))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "MODEL_FORMAT"


def test_decode_bigram_loads_the_largest_count(tax_file, corpus_file, tmp_path, capsys):
    # Counts lie in [0, 2**53): the largest is exact as a float and decodes like any other.
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"alphabet": MEDIA_ALPHABET, "counts": {"Root": {"Business": 2**53 - 1}}}))
    predictions = tmp_path / "pred.jsonl"
    code, out, err = run(capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file,
                         "--output", str(predictions), "--scorer", "bigram", "--model", str(model))
    assert (code, out) == (0, "")
    rows = [json.loads(line) for line in predictions.read_text().splitlines()]
    assert json.loads(err)["decoded"] == len(rows) > 0
    assert all(row["sequence"][:2] == ["Root", "Business"] for row in rows)


def test_decode_bigram_reads_a_model_alphabet_in_any_order(tax_file, corpus_file, tmp_path, capsys):
    # Scores read only the counts and the alphabet's size, so its order carries no meaning.
    model, reversed_model = tmp_path / "model.json", tmp_path / "reversed.json"
    code, _, _ = run(capsys, "fit", "--taxonomy", tax_file, "--input", corpus_file, "--output", str(model))
    assert code == 0
    data = json.loads(model.read_text())
    data["alphabet"].reverse()
    reversed_model.write_text(json.dumps(data))
    outputs = []
    for path in (model, reversed_model):
        predictions = tmp_path / f"{path.stem}.pred.jsonl"
        code, _, _ = run(capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file,
                         "--output", str(predictions), "--scorer", "bigram", "--model", str(path))
        assert code == 0
        outputs.append(predictions.read_bytes())
    assert outputs[0] == outputs[1]


# A block is one decode run's input: the whole corpus in one file, or the corpus cut into files
# of two records. The rows a decode run writes must not depend on which documents share its run.
BLOCKS = pytest.mark.parametrize("block", [None, 2], ids=["one-block", "blocks-of-two"])


def _blocks(lines: list, block: int | None) -> list[list]:
    """The corpus lines as each decode run's input: all of them, or consecutive runs of ``block``."""
    return [lines] if block is None else [lines[start:start + block] for start in range(0, len(lines), block)]


@BLOCKS
@pytest.mark.parametrize("mode", ["constrained", "unconstrained"])
def test_decode_bigram_rows_do_not_leak_between_documents(mode, block, tmp_path, capsys):
    # One loaded model decodes every document; each row must be what that document decodes to alone.
    tax, corpus = str(ROOT / "demos/data/media.tsv"), ROOT / "demos/data/corpus.jsonl"
    model = tmp_path / "model.json"
    assert run(capsys, "fit", "--taxonomy", tax, "--input", str(corpus), "--output", str(model))[0] == 0
    documents = corpus.read_text(encoding="utf-8").splitlines(keepends=True)
    assert len({json.loads(line)["text"] for line in documents}) == len(documents) > 2

    def decode(lines, name):
        source, target = tmp_path / f"{name}.jsonl", tmp_path / f"{name}.pred.jsonl"
        source.write_text("".join(lines), encoding="utf-8")
        code, _, _ = run(capsys, "decode", "--taxonomy", tax, "--input", str(source), "--output", str(target),
                         "--mode", mode, "--scorer", "bigram", "--model", str(model))
        assert code == 0
        return target.read_bytes()

    alone = b"".join(decode([line], f"alone{index}") for index, line in enumerate(documents))
    assert b"".join(decode(lines, f"block{index}") for index, lines in enumerate(_blocks(documents, block))) == alone


MEDIA_TAXONOMY, MEDIA_CORPUS = str(ROOT / "demos/data/media.tsv"), str(ROOT / "demos/data/corpus.jsonl")
MEDIA_IDS = ["d1", "d2", "d3", "d4", "d5"]


def _count_searches(monkeypatch) -> list[str]:
    """Wrap both decode modes' searches; the list gets one entry per call, naming the text searched."""
    texts = []
    for name in ("constrained_beam_search", "unconstrained_decode"):
        def counted(tax, scorer, text, beam_width, _search=getattr(decoding, name)):
            texts.append(text)
            return _search(tax, scorer, text, beam_width)
        monkeypatch.setattr(decoding, name, counted)
    return texts


def _decode_media(capsys, tmp_path, name, *options, corpus=MEDIA_CORPUS):
    """Decode the demo corpus; returns the exit code, the predictions' bytes and the stderr summary."""
    target = tmp_path / f"{name}.pred.jsonl"
    code, out, err = run(capsys, "decode", "--taxonomy", MEDIA_TAXONOMY, "--input", str(corpus),
                         "--output", str(target), *options)
    assert out == ""
    return code, target.read_bytes(), json.loads(err.splitlines()[-1])


def _scorer_options(capsys, tmp_path, scorer) -> list[str]:
    """The decode options that select a text-blind scorer, fitting the bigram model on the demo corpus."""
    if scorer is UniformScorer:
        return []
    model = tmp_path / "model.json"
    assert run(capsys, "fit", "--taxonomy", MEDIA_TAXONOMY, "--input", MEDIA_CORPUS, "--output", str(model))[0] == 0
    return ["--scorer", "bigram", "--model", str(model)]


@BLOCKS
@pytest.mark.parametrize("mode", ["constrained", "unconstrained"])
@pytest.mark.parametrize("scorer", [BigramScorer, UniformScorer], ids=["bigram", "uniform"])
def test_a_text_blind_scorer_searches_once_per_decode_run(scorer, mode, block, tmp_path, capsys, monkeypatch):
    # The one search's result is every document's row: the bytes and the summary of a run that
    # searches once per document, with the scorer's promise withdrawn, are the same.
    options = ["--mode", mode, "--beam", "1", *_scorer_options(capsys, tmp_path, scorer)]
    corpora = []
    for index, lines in enumerate(_blocks(Path(MEDIA_CORPUS).read_text(encoding="utf-8").splitlines(True), block)):
        corpora.append(tmp_path / f"block{index}.jsonl")
        corpora[-1].write_text("".join(lines), encoding="utf-8")
    texts = _count_searches(monkeypatch)
    once = [_decode_media(capsys, tmp_path, f"once{index}", *options, corpus=c) for index, c in enumerate(corpora)]
    assert len(texts) == len(corpora)
    monkeypatch.setattr(scorer, "reads_text", True)
    texts.clear()
    each = [_decode_media(capsys, tmp_path, f"each{index}", *options, corpus=c) for index, c in enumerate(corpora)]
    assert len(set(texts)) == len(texts) == len(MEDIA_IDS)
    assert once == each
    assert all(code == 0 for code, _, _ in once) and sum(summary["decoded"] for _, _, summary in once) == len(MEDIA_IDS)
    assert [json.loads(line)["id"] for _, rows, _ in once for line in rows.splitlines()] == MEDIA_IDS


ESCAPED_IDS = ['say "hi"', "back\\slash", "caf\u00e9 \u2615", "line\u2028break", "bell\x07"]


@pytest.mark.parametrize("scorer", [BigramScorer, UniformScorer], ids=["bigram", "uniform"])
def test_a_text_blind_run_encodes_ids_that_need_escaping_as_a_run_per_document_does(
    scorer, tmp_path, capsys, monkeypatch
):
    # The one search's fields are encoded once and each id on its own: a quote, a backslash,
    # non-ASCII, U+2028 and a control character must come out as json.dumps writes them per row.
    corpus = tmp_path / "escaped.jsonl"
    write_jsonl(corpus, [dict(doc, id=new) for doc, new in zip(read_jsonl(MEDIA_CORPUS), ESCAPED_IDS)])
    options = _scorer_options(capsys, tmp_path, scorer)
    once = _decode_media(capsys, tmp_path, "once", *options, corpus=corpus)
    monkeypatch.setattr(scorer, "reads_text", True)
    each = _decode_media(capsys, tmp_path, "each", *options, corpus=corpus)
    assert once == each
    assert once[0] == 0 and once[2]["decoded"] == len(ESCAPED_IDS)
    # Both runs share the encoding, so each line is also checked against json.dumps of its row.
    rows = [json.loads(line) for line in once[1].split(b"\n")[:-1]]
    assert [row["id"] for row in rows] == ESCAPED_IDS
    assert once[1] == "".join(json.dumps(row) + "\n" for row in rows).encode()


@pytest.mark.parametrize("mode", ["constrained", "unconstrained"])
def test_the_oracle_still_searches_once_per_document(mode, tmp_path, capsys, monkeypatch):
    texts = _count_searches(monkeypatch)
    code, _, summary = _decode_media(capsys, tmp_path, "oracle", "--scorer", "oracle", "--mode", mode)
    assert code == 0
    assert len(set(texts)) == len(texts) == summary["decoded"] == len(MEDIA_IDS)


@pytest.mark.parametrize("mode", ["constrained", "unconstrained"])
def test_an_overflow_of_the_one_search_overflows_every_document(mode, tmp_path, capsys, monkeypatch):
    calls = []

    def overflow(tax, scorer, text, beam_width):
        calls.append(text)
        raise DecodeOverflowError("no sequence ended within the length budget")

    monkeypatch.setattr(decoding, "constrained_beam_search", overflow)
    monkeypatch.setattr(decoding, "unconstrained_decode", overflow)
    code, predictions, summary = _decode_media(capsys, tmp_path, "overflow", "--mode", mode)
    assert (code, predictions, len(calls)) == (1, b"", 1)
    assert summary == {"documents": 5, "decoded": 0, "inconsistent": 0, "overflow": MEDIA_IDS}


def test_label_with_whitespace_is_an_invalid_taxonomy(tmp_path, corpus_file, capsys):
    # Before the check, linearize wrote "Root my label POP" and delinearize
    # then failed on the unknown label "my".
    spaced = tmp_path / "spaced.tsv"
    spaced.write_text("Root\tmy label\n")
    code, out, _ = run(capsys, "validate", "--taxonomy", str(spaced))
    assert code == 1
    assert [issue["code"] for issue in json.loads(out)["issues"]] == ["WHITESPACE_NAME"]
    code, out, err = run(capsys, "linearize", "--taxonomy", str(spaced), "--input", corpus_file)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "INVALID_TAXONOMY"


def test_taxonomy_with_a_byte_order_mark_is_an_encoding_issue(tmp_path, corpus_file, capsys):
    # Without the check the mark joins the first name: this file had two roots, '\ufeffRoot' and 'Root'.
    marked = tmp_path / "bom.tsv"
    marked.write_bytes(b"\xef\xbb\xbf" + MEDIA_EDGES.encode("utf-8"))
    code, out, _ = run(capsys, "validate", "--taxonomy", str(marked))
    assert code == 1
    assert [issue["code"] for issue in json.loads(out)["issues"]] == ["ENCODING"]
    code, out, err = run(capsys, "linearize", "--taxonomy", str(marked), "--input", corpus_file)
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "INVALID_TAXONOMY"
    assert "ENCODING" in json.loads(err)["message"]


def test_decode_unconstrained_reports_inconsistent(tax_file, corpus_file, tmp_path, capsys):
    predictions = tmp_path / "pred.jsonl"
    code, _, err = run(
        capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file,
        "--output", str(predictions), "--mode", "unconstrained", "--beam", "1",
    )
    assert code == 0
    assert json.loads(err.splitlines()[-1])["inconsistent"] == 3


@pytest.mark.parametrize(
    "options, summary",
    [
        pytest.param(
            ["--scorer", "oracle"],
            '{"documents": 5, "decoded": 5, "inconsistent": 0, "overflow": []}',
            id="oracle-constrained",
        ),
        pytest.param(
            ["--scorer", "uniform", "--mode", "unconstrained"],
            '{"documents": 5, "decoded": 5, "inconsistent": 5, "overflow": []}',
            id="uniform-unconstrained",
        ),
    ],
)
def test_decode_summary_line_of_the_media_corpus(options, summary, tmp_path, capsys):
    data = ROOT / "demos" / "data"
    code, out, err = run(
        capsys, "decode", "--taxonomy", str(data / "media.tsv"), "--input", str(data / "corpus.jsonl"),
        "--output", str(tmp_path / "pred.jsonl"), *options,
    )
    assert (code, out, err) == (0, "", summary + "\n")


def test_decode_rejects_zero_beam(tax_file, corpus_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["decode", "--taxonomy", tax_file, "--input", corpus_file, "--beam", "0"])
    assert excinfo.value.code == 2


def test_postprocess_closure_and_idempotence(tax_file, tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, [{"id": "p1", "labels": ["Documentary", "Company"]}])
    closed = tmp_path / "closed.jsonl"
    code, _, _ = run(
        capsys, "postprocess", "--taxonomy", tax_file, "--input", str(raw),
        "--output", str(closed),
    )
    assert code == 0
    assert read_jsonl(closed) == [{"id": "p1", "labels": GOLD_BY_ID["d1"]}]

    again = tmp_path / "again.jsonl"
    code, _, _ = run(
        capsys, "postprocess", "--taxonomy", tax_file, "--input", str(closed),
        "--output", str(again),
    )
    assert code == 0
    assert again.read_bytes() == closed.read_bytes()


def test_postprocess_empty_predictions(tax_file, tmp_path, capsys):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    out = tmp_path / "out.jsonl"
    code, _, _ = run(capsys, "postprocess", "--taxonomy", tax_file, "--input", str(empty),
                     "--output", str(out))
    assert code == 0
    assert out.read_text() == ""


def test_postprocess_unknown_labels(tax_file, tmp_path, capsys):
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, [{"id": "p9", "labels": ["Music"]}])
    code, _, err = run(capsys, "postprocess", "--taxonomy", tax_file, "--input", str(raw))
    assert code == 1
    assert "p9" in err and "Music" in err


# Every command that reads label sets, each run on a file "{bad}" whose record d1 holds a bad
# label set; "evaluate" reads it as the gold file, "evaluate-predictions" as the predictions,
# each beside a good file "{good}". Every command prints the same error line.
LABEL_COMMANDS = {
    "linearize": ["linearize", "--input", "{bad}"],
    "linearize-closure": ["linearize", "--input", "{bad}", "--closure"],
    "fit": ["fit", "--input", "{bad}", "--output", "{out}"],
    "fit-closure": ["fit", "--input", "{bad}", "--output", "{out}", "--closure"],
    "decode-oracle": ["decode", "--scorer", "oracle", "--input", "{bad}", "--output", "{out}"],
    "postprocess": ["postprocess", "--input", "{bad}", "--output", "{out}"],
    "evaluate": ["evaluate", "--gold", "{bad}", "--predictions", "{good}", "--output", "{out}"],
    "evaluate-predictions": ["evaluate", "--gold", "{good}", "--predictions", "{bad}", "--output", "{out}"],
    "stats": ["stats", "--split", "train={bad}"],
}
# (labels, the label every command must name); the "unknown" sets hold one that sorts after the root.
ROOTED = (["Entertainment", "Root"], "Root")
ROOT_AND_UNKNOWN = (["Root", "Zzz"], "Root")  # --closure must check the set before it closes it
UNKNOWNS = (["Entertainment", "Sports", "Jazz", "Opera"], "Jazz")


def _label_command(command: str, bad_set: tuple[list[str], str], tmp_path) -> tuple[list[str], str]:
    """The argv of ``command`` on a record holding ``bad_set``, and the one stderr line it must print."""
    labels, label = bad_set
    bad, good = tmp_path / "bad.jsonl", tmp_path / "good.jsonl"
    write_jsonl(bad, [{"id": "d1", "text": "", "labels": labels}])
    write_jsonl(good, [{"id": "d1", "text": "", "labels": ["Entertainment"]}])
    argv = [arg.format(bad=bad, good=good, out=tmp_path / "out") for arg in LABEL_COMMANDS[command]]
    where = {"evaluate": " in --gold", "evaluate-predictions": " in --predictions", "stats": " in split 'train'"}
    where = where.get(command, "")
    message = f"document 'd1': unknown label {label!r}{where}"
    return argv, json.dumps({"error": "UNKNOWN_LABEL", "message": message}) + "\n"


@pytest.mark.parametrize(
    "command, bad_set",
    [(command, ROOTED) for command in LABEL_COMMANDS]
    + [(command, ROOT_AND_UNKNOWN) for command in LABEL_COMMANDS],
    ids=[*LABEL_COMMANDS, *(f"{command}-unknown" for command in LABEL_COMMANDS)],
)
def test_every_command_rejects_the_root_as_a_label(command, bad_set, tax_file, tmp_path, capsys):
    argv, stderr = _label_command(command, bad_set, tmp_path)
    code, out, err = run(capsys, argv[0], "--taxonomy", tax_file, *argv[1:])
    assert (code, out, err) == (1, "", stderr)
    assert not (tmp_path / "out").exists()


def test_unknown_label_is_named_alike_under_every_hash_seed(tax_file, tmp_path):
    # Set iteration order follows PYTHONHASHSEED; the label an error names must not.
    for command in LABEL_COMMANDS:
        argv, stderr = _label_command(command, UNKNOWNS, tmp_path)
        for seed in range(5):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(seed))
            done = subprocess.run(
                [sys.executable, "-m", "treedecode.cli", argv[0], "--taxonomy", tax_file, *argv[1:]],
                env=env, capture_output=True, text=True, timeout=60,
            )
            assert (command, done.returncode, done.stdout, done.stderr) == (command, 1, "", stderr)


def _error_lines(*errors: tuple[str, str]) -> str:
    return "".join(json.dumps({"error": code, "message": message}) + "\n" for code, message in errors)


# A record without labels and one with an unknown label: each is reported, once named.
MIXED = [{"id": "a", "labels": ["Nope"]}, {"id": "b"}, {"id": "c", "labels": ["Entertainment"]}]
MIXED_ERRORS = _error_lines(
    ("UNKNOWN_LABEL", "document 'a': unknown label 'Nope'"),
    ("CORPUS_FORMAT", "document 'b' has no labels"),
)
# A command that reads several files names the one whose record failed, since ids are unique
# only within a file: "{bad}" holds the failing record "b", beside a good file "{good}".
# (An unknown label in evaluate's files is named by test_every_command_rejects_the_root_as_a_label.)
NO_LABELS, JAZZ = ({"id": "b"}, "CORPUS_FORMAT"), ({"id": "b", "labels": ["Jazz"]}, "UNKNOWN_LABEL")
REPEATED = ({"id": "b", "labels": ["Business", "Company", "Business"]}, "CORPUS_FORMAT")
REPEATED_ERROR = "{bad}: record 2 repeats label 'Business'"
STATS = ["stats", "--split", "train={good}", "--split", "test={bad}"]


@pytest.mark.parametrize(
    "argv, bad_record, error",
    [
        (["evaluate", "--gold", "{bad}", "--predictions", "{good}"], NO_LABELS, "document 'b' has no labels in --gold"),
        (["evaluate", "--gold", "{good}", "--predictions", "{bad}"], NO_LABELS,
         "document 'b' has no labels in --predictions"),
        (STATS, NO_LABELS, "document 'b' has no labels in split 'test'"),
        (STATS, JAZZ, "document 'b': unknown label 'Jazz' in split 'test'"),
        # A repeated label is named with its file and record by every command that reads labels.
        (["linearize", "--input", "{bad}"], REPEATED, REPEATED_ERROR),
        (["fit", "--input", "{bad}", "--output", "-"], REPEATED, REPEATED_ERROR),
        (["decode", "--input", "{bad}", "--scorer", "oracle"], REPEATED, REPEATED_ERROR),
        (["evaluate", "--gold", "{bad}", "--predictions", "{good}"], REPEATED, REPEATED_ERROR),
        (["evaluate", "--gold", "{good}", "--predictions", "{bad}"], REPEATED, REPEATED_ERROR),
        (STATS, REPEATED, REPEATED_ERROR),
    ],
    ids=[
        "evaluate-gold", "evaluate-predictions", "stats-second-split", "stats-second-split-unknown-label",
        "linearize-repeated-label", "fit-repeated-label", "decode-oracle-repeated-label",
        "evaluate-gold-repeated-label", "evaluate-predictions-repeated-label", "stats-repeated-label",
    ],
)
def test_a_bad_record_names_its_file(argv, bad_record, error, tax_file, tmp_path, capsys):
    (record, code), good, bad = bad_record, tmp_path / "good.jsonl", tmp_path / "bad.jsonl"
    write_jsonl(good, [{"id": "a", "labels": ["Entertainment"]}, {"id": "b", "labels": ["Business"]}])
    write_jsonl(bad, [{"id": "a", "labels": ["Entertainment"]}, record])
    argv, error = [arg.format(good=good, bad=bad) for arg in argv], error.format(bad=bad)
    assert run(capsys, argv[0], "--taxonomy", tax_file, *argv[1:]) == (1, "", _error_lines((code, error)))


SEQUENCES = [
    {"id": "s1", "sequence": "Root Company"},
    {"id": "s2", "sequence": "Root Business POP"},
    {"id": "s3", "sequence": 7},
    {"id": "s4", "sequence": ["Root", "Business"]},
]


@pytest.mark.parametrize(
    "argv, records, stderr",
    [
        (["linearize"], MIXED, MIXED_ERRORS),
        (["linearize", "--closure"], MIXED, MIXED_ERRORS),
        (["postprocess"], MIXED, MIXED_ERRORS),
        (["delinearize"], SEQUENCES, _error_lines(
            ("INVALID_SEQUENCE", "document 's1': invalid label sequence at position 1: NON_CHILD"),
            ("CORPUS_FORMAT", "{path}: record 3 needs a sequence string or list of strings, got 7"),
            ("INVALID_SEQUENCE", "document 's4': invalid label sequence at position 2: UNCLOSED"),
        )),
    ],
    ids=["linearize", "linearize-closure", "postprocess", "delinearize"],
)
def test_every_bad_record_is_reported_and_nothing_written(argv, records, stderr, tax_file, tmp_path, capsys):
    path, out = tmp_path / "records.jsonl", tmp_path / "out.jsonl"
    write_jsonl(path, records)
    code, stdout, err = run(capsys, argv[0], "--taxonomy", tax_file, "--input", str(path),
                            "--output", str(out), *argv[1:])
    assert (code, stdout, err) == (1, "", stderr.replace("{path}", str(path)))
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["evaluate", "--gold", "{gold}", "--predictions", "{pred}"], '"micro_f1": 0.0,'),
        (["postprocess", "--input", "{pred}"], '{"id": "d1", "labels": []}\n'),
        (["stats", "--split", "gold={gold}", "--split", "pred={pred}"], '"avg_labels": 0.5,'),
        (["linearize", "--input", "{pred}"], '{"id": "d1", "sequence": "Root"}\n'),
        (["decode", "--scorer", "oracle", "--input", "{pred}"], '"sequence": ["Root"], "labels": [],'),
    ],
    ids=["evaluate", "postprocess", "stats", "linearize", "decode-oracle"],
)
def test_explicit_empty_prediction_is_valid(argv, expected, tax_file, tmp_path, capsys):
    # Unlike a record without "labels", which is a CORPUS_FORMAT error.
    gold, pred = tmp_path / "gold.jsonl", tmp_path / "pred.jsonl"
    write_jsonl(gold, [{"id": "d1", "labels": ["Entertainment"]}])
    write_jsonl(pred, [{"id": "d1", "labels": []}])
    argv = [arg.format(gold=gold, pred=pred) for arg in argv]
    code, out, _ = run(capsys, argv[0], "--taxonomy", tax_file, *argv[1:])
    assert code == 0
    assert expected in out


def test_fit_counts_an_explicit_empty_label_set(tax_file, tmp_path, capsys):
    corpus, model = tmp_path / "corpus.jsonl", tmp_path / "model.json"
    write_jsonl(corpus, [{"id": "a", "labels": []}, {"id": "b", "labels": ["Entertainment"]}])
    code, _, _ = run(capsys, "fit", "--taxonomy", tax_file, "--input", str(corpus), "--output", str(model))
    assert code == 0
    # "a" is the sequence Root <eos>; "b" is Root Entertainment POP <eos>.
    counts = json.loads(model.read_text())["counts"]
    assert counts == {
        "Root": {"<eos>": 1, "Entertainment": 1}, "Entertainment": {"POP": 1}, "POP": {"<eos>": 1},
    }


def test_evaluate_isolated_fixture(tax_file, tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    write_jsonl(gold, [{"id": "d1", "text": "", "labels": GOLD_BY_ID["d1"]}])
    predictions = tmp_path / "pred.jsonl"
    write_jsonl(predictions, [{"id": "d1", "labels": ["Entertainment", "Documentary", "Company"]}])
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "evaluate", "--taxonomy", tax_file, "--gold", str(gold),
        "--predictions", str(predictions), "--output", str(report_path),
    )
    assert code == 0
    assert "0.7500" in out and "0.2500" in out
    report = json.loads(report_path.read_text())
    assert report["micro_f1"] == 0.75
    assert report["c_micro_f1"] == 0.25
    assert report["inconsistent_docs"] == 1


def test_evaluate_gold_as_predictions(tax_file, corpus_file, tmp_path, capsys):
    predictions = tmp_path / "pred.jsonl"
    write_jsonl(predictions, [{"id": i, "labels": l} for i, l in GOLD_BY_ID.items()])
    code, out, _ = run(
        capsys, "evaluate", "--taxonomy", tax_file, "--gold", corpus_file,
        "--predictions", str(predictions),
    )
    assert code == 0
    assert "1.0000" in out


def test_evaluate_postprocessed_equalizes_constrained(tax_file, tmp_path, capsys):
    gold = tmp_path / "gold.jsonl"
    write_jsonl(gold, [{"id": "d1", "text": "", "labels": GOLD_BY_ID["d1"]}])
    raw = tmp_path / "raw.jsonl"
    write_jsonl(raw, [{"id": "d1", "labels": ["Entertainment", "Documentary", "Company"]}])
    closed = tmp_path / "closed.jsonl"
    run(capsys, "postprocess", "--taxonomy", tax_file, "--input", str(raw), "--output", str(closed))
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "evaluate", "--taxonomy", tax_file, "--gold", str(gold),
        "--predictions", str(closed), "--output", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["c_micro_f1"] == report["micro_f1"]
    assert report["c_macro_f1"] == report["macro_f1"]


def test_evaluate_alignment_error(tax_file, corpus_file, tmp_path, capsys):
    predictions = tmp_path / "pred.jsonl"
    write_jsonl(predictions, [{"id": "d1", "labels": []}, {"id": "ghost", "labels": []}])
    code, _, err = run(
        capsys, "evaluate", "--taxonomy", tax_file, "--gold", corpus_file,
        "--predictions", str(predictions),
    )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "ALIGNMENT_ERROR"
    assert "ghost" in payload["message"]


def test_evaluate_rejects_repeated_prediction_id(tax_file, corpus_file, tmp_path, capsys):
    predictions = tmp_path / "pred.jsonl"
    rows = [{"id": i, "labels": l} for i, l in GOLD_BY_ID.items()]
    write_jsonl(predictions, rows + [{"id": "d2", "labels": []}])
    code, _, err = run(
        capsys, "evaluate", "--taxonomy", tax_file, "--gold", corpus_file,
        "--predictions", str(predictions),
    )
    assert code == 1
    payload = json.loads(err.splitlines()[-1])
    assert payload["error"] == "CORPUS_FORMAT"
    assert "duplicate id 'd2'" in payload["message"]


@pytest.mark.parametrize(
    "command, record",
    [
        pytest.param("evaluate", {"labels": ["Entertainment"]}, id="evaluate-prediction-without-id"),
        pytest.param("evaluate", {"id": "d1", "labels": "AB"}, id="evaluate-labels-string"),
        pytest.param("postprocess", {"labels": ["Entertainment"]}, id="postprocess-without-id"),
        pytest.param("postprocess", {"id": "p1", "labels": "AB"}, id="postprocess-labels-string"),
        pytest.param("delinearize", {"sequence": "Root Business POP"}, id="delinearize-without-id"),
        pytest.param("delinearize", {"id": "s1"}, id="delinearize-without-sequence"),
        pytest.param("delinearize", {"id": "s1", "sequence": 7}, id="delinearize-sequence-number"),
        pytest.param("delinearize", {"id": "s1", "sequence": ["Root", 7]}, id="delinearize-token-number"),
        pytest.param("linearize", {"id": "d1", "labels": "AB"}, id="corpus-labels-string"),
        pytest.param("linearize", {"id": "d1", "labels": ["Entertainment", 3]}, id="corpus-label-number"),
        pytest.param("evaluate", {"id": "d1", "labels": ["Entertainment", None]}, id="evaluate-label-null"),
        pytest.param("decode", {"id": "d1", "text": None}, id="decode-text-null"),
        pytest.param("linearize", {"id": "d1", "text": ["a"], "labels": ["Business"]}, id="corpus-text-list"),
        pytest.param("decode", {"id": None, "text": ""}, id="decode-id-null"),
        pytest.param("evaluate", {"id": 1, "labels": ["Entertainment"]}, id="evaluate-id-number"),
        pytest.param("linearize", {"id": True, "labels": ["Business"]}, id="corpus-id-bool"),
        pytest.param("delinearize", {"id": ["s1"], "sequence": "Root Business POP"}, id="delinearize-id-list"),
        pytest.param(
            "delinearize",
            '{"id": "s1", "sequence": "Root Business POP"}\n{"id": "s1", "sequence": "Root Business POP"}',
            id="delinearize-repeated-id",
        ),
        pytest.param("decode", "[" * 100_000, id="decode-deep-nesting"),
        pytest.param("decode", '{"id": "d1", "text": ' + "1" * 5000 + "}", id="decode-int-digits"),
        pytest.param("evaluate", '{"id": "d1", "labels": ' + "[" * 100_000, id="evaluate-deep-nesting"),
        pytest.param("evaluate", {"id": "d1"}, id="evaluate-prediction-without-labels"),
        pytest.param("postprocess", {"id": "p1"}, id="postprocess-without-labels"),
        pytest.param("linearize", {"id": "d1", "text": ""}, id="corpus-without-labels"),
        pytest.param(
            "stats", '{"id": "a", "labels": ["Business"]}\n{"id": "b"}', id="stats-without-labels"
        ),
    ],
)
def test_malformed_record_is_a_corpus_format_error(
    command, record, tax_file, corpus_file, tmp_path, capsys
):
    records = tmp_path / "records.jsonl"
    if isinstance(record, str):  # a raw line that no JSON encoder would write
        records.write_text(record + "\n")
    else:
        write_jsonl(records, [record])
    if command == "evaluate":
        files = ["--gold", corpus_file, "--predictions", str(records)]
    elif command == "stats":
        files = ["--split", f"train={records}"]
    else:
        files = ["--input", str(records)]
    code, out, err = run(capsys, command, "--taxonomy", tax_file, *files)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == "CORPUS_FORMAT"


@pytest.mark.parametrize(
    "command, flag, error",
    [
        pytest.param("validate", "--taxonomy", "INVALID_TAXONOMY", id="validate-taxonomy"),
        pytest.param("decode", "--taxonomy", "INVALID_TAXONOMY", id="decode-taxonomy"),
        pytest.param("decode", "--input", "CORPUS_FORMAT", id="decode-corpus"),
        pytest.param("fit", "--input", "CORPUS_FORMAT", id="fit-corpus"),
        pytest.param("evaluate", "--gold", "CORPUS_FORMAT", id="evaluate-gold"),
        pytest.param("evaluate", "--predictions", "CORPUS_FORMAT", id="evaluate-predictions"),
    ],
)
def test_non_utf8_file_is_a_json_error(
    command, flag, error, tax_file, corpus_file, tmp_path, capsys
):
    model = str(tmp_path / "m.json")
    files = {
        "validate": {"--taxonomy": tax_file},
        "decode": {"--taxonomy": tax_file, "--input": corpus_file},
        "fit": {"--taxonomy": tax_file, "--input": corpus_file, "--output": model},
        "evaluate": {"--taxonomy": tax_file, "--gold": corpus_file, "--predictions": corpus_file},
    }[command]
    # "é" in Latin-1 is the byte 0xe9, which cannot start a UTF-8 sequence here.
    latin1 = b"Root\tCaf\xe9\n" if flag == "--taxonomy" else b'{"id": "d1", "text": "caf\xe9"}\n'
    broken = tmp_path / "latin1"
    broken.write_bytes(latin1)
    files[flag] = str(broken)
    code, out, err = run(capsys, command, *(part for pair in files.items() for part in pair))
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    assert json.loads(err)["error"] == error


def test_decode_then_evaluate_reports_zero_inconsistent(tax_file, corpus_file, tmp_path, capsys):
    model = tmp_path / "model.json"
    run(capsys, "fit", "--taxonomy", tax_file, "--input", corpus_file, "--output", str(model))
    predictions = tmp_path / "pred.jsonl"
    run(capsys, "decode", "--taxonomy", tax_file, "--input", corpus_file,
        "--output", str(predictions), "--scorer", "bigram", "--model", str(model))
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "evaluate", "--taxonomy", tax_file, "--gold", corpus_file,
        "--predictions", str(predictions), "--output", str(report_path),
    )
    assert code == 0
    report = json.loads(report_path.read_text())
    assert report["inconsistent_docs"] == 0
    assert report["c_micro_f1"] == report["micro_f1"]


def test_stats(tax_file, corpus_file, capsys):
    code, out, _ = run(
        capsys, "stats", "--taxonomy", tax_file, "--split", f"train={corpus_file}",
    )
    assert code == 0
    stats = json.loads(out)
    assert stats["label_count"] == 6
    assert stats["depth"] == 3
    assert stats["avg_labels"] == pytest.approx(8 / 3)
    assert stats["split_sizes"] == {"train": 3}


def test_stats_bad_split_argument(tax_file, capsys):
    code, _, err = run(capsys, "stats", "--taxonomy", tax_file, "--split", "train")
    assert code == 1
    assert "NAME=PATH" in err


# Every split is checked before a file is opened, so a missing file does not hide a bad argument.
@pytest.mark.parametrize(
    "splits",
    [["train={corpus}", "train={one}"], ["={corpus}"], ["a={missing}", "b"]],
    ids=["repeated-name", "empty-name", "after-a-missing-file"],
)
def test_stats_rejects_a_repeated_or_empty_split_name(splits, tax_file, corpus_file, tmp_path, capsys):
    one = tmp_path / "one.jsonl"
    write_jsonl(one, [{"id": "x", "labels": ["Business"]}])
    argv = []
    for split in splits:
        argv += ["--split", split.format(corpus=corpus_file, one=one, missing=tmp_path / "missing.jsonl")]
    code, out, err = run(capsys, "stats", "--taxonomy", tax_file, *argv)
    assert (code, out) == (1, "")
    assert json.loads(err)["message"].startswith("--split wants NAME=PATH")


def test_linearize_delinearize_round_trip_500_docs(tmp_path, capsys):
    # File-level losslessness on a synthetic corpus: label arrays come back
    # byte-identical (order-normalized) after linearize then delinearize.
    import random

    from conftest import random_consistent_labels, random_taxonomy

    rng = random.Random(97)
    tax = random_taxonomy(rng, 60)
    tax_path = tmp_path / "tax.tsv"
    tax_path.write_text(tax.render_edges())
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(
        corpus,
        [
            {"id": f"d{i}", "text": "", "labels": sorted(random_consistent_labels(rng, tax))}
            for i in range(500)
        ],
    )
    sequences = tmp_path / "sequences.jsonl"
    labels_back = tmp_path / "labels.jsonl"
    assert main(["linearize", "--taxonomy", str(tax_path), "--input", str(corpus),
                 "--output", str(sequences)]) == 0
    assert main(["delinearize", "--taxonomy", str(tax_path), "--input", str(sequences),
                 "--output", str(labels_back)]) == 0
    capsys.readouterr()
    original = [{"id": r["id"], "labels": r["labels"]} for r in read_jsonl(corpus)]
    assert read_jsonl(labels_back) == original


def test_repeated_main_calls_match_fresh_processes(tax_file, corpus_file, tmp_path, capsys, monkeypatch):
    # main keeps one parser for the process; no call may see what an earlier one parsed.
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines at the terminal width
    inconsistent = tmp_path / "inconsistent.jsonl"
    write_jsonl(inconsistent, [{"id": "d1", "labels": ["Documentary"]}])
    decode = ["decode", "--taxonomy", tax_file, "--input", corpus_file]
    calls = [
        [*decode, "--beam", "0"],
        ["stats", "--taxonomy", tax_file, "--split", f"a={corpus_file}"],
        ["stats", "--taxonomy", tax_file, "--split", f"b={inconsistent}"],
        ["linearize", "--taxonomy", tax_file, "--input", str(inconsistent), "--closure"],
        ["linearize", "--taxonomy", tax_file, "--input", str(inconsistent)],
        [*decode, "--output", "{out}", "--beam", "1", "--mode", "unconstrained"],
        [*decode, "--output", "{out}"],
    ]

    def outcome(code, out, err, path):
        return code, out, err, path.read_bytes() if path.exists() else None

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")
    alone, together = [], []
    for index, argv in enumerate(calls):
        path = tmp_path / f"alone-{index}.jsonl"
        done = subprocess.run(
            [sys.executable, "-m", "treedecode.cli", *(arg.format(out=path) for arg in argv)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        alone.append(outcome(done.returncode, done.stdout, done.stderr, path))
    for index, argv in enumerate(calls):
        path = tmp_path / f"together-{index}.jsonl"
        try:
            code = main([arg.format(out=path) for arg in argv])
        except SystemExit as exit_:
            code = exit_.code
        captured = capsys.readouterr()
        together.append(outcome(code, captured.out, captured.err, path))
    assert together == alone
    assert [result[0] for result in together] == [2, 0, 0, 0, 1, 0, 0]
    assert '"b": 1' in together[2][1] and '"a"' not in together[2][1]
    assert "not closed under ancestors" in together[4][2]  # INCONSISTENT_LABELSET


def test_main_builds_its_parser_once(tax_file, capsys):
    cli._parser.cache_clear()
    for _ in range(3):
        assert main(["validate", "--taxonomy", tax_file]) == 0
    with pytest.raises(SystemExit):
        main(["decode", "--taxonomy", tax_file, "--input", tax_file, "--beam", "0"])
    capsys.readouterr()
    assert cli._parser.cache_info().misses == 1
    assert cli.build_parser() is not cli.build_parser()
    assert cli.build_parser() is not cli._parser()
