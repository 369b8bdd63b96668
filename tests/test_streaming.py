"""Commands read their input one record at a time and write their output only on success.

A fault found on the last line still ends the command with exit code 1 and a
``CORPUS_FORMAT`` error, and the output file keeps its old bytes with nothing
left beside it. Every command, ``decode`` too, reports a fault when its line is
read, so the first fault in the file wins. A written output has the permission
bits ``open(path, "w")`` would give it, and ``--output -`` and
``--output /dev/stdout`` still write to stdout.
The peak memory of ``fit`` and ``stats`` does not grow with the number of
documents beyond the set of their ids. ``stats`` checks all its ``--split``
arguments, then reads its splits one after another, so a label error in an
earlier split is reported before a format error in a later one.
"""

from __future__ import annotations

import json
import os
import random
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import MEDIA_EDGES
from treedecode import decoding
from treedecode.cli import main
from treedecode.errors import DecodeOverflowError

ROOT = Path(__file__).resolve().parent.parent
OLD = b"the old output\n"

CORPUS = [
    {"id": "d1", "text": "a film", "labels": ["Entertainment", "Movie", "Documentary"]},
    {"id": "d2", "text": "a firm", "labels": ["Business", "Company"]},
    {"id": "d3", "text": "", "labels": ["Entertainment"]},
]
SEQUENCES = [
    {"id": "d1", "sequence": "Root Entertainment Movie Documentary POP POP POP"},
    {"id": "d2", "sequence": "Root Business Company POP POP"},
    {"id": "d3", "sequence": ["Root", "Entertainment", "POP"]},
]
# The last line of a four-line file, after three good records.
FAULTS = {
    "bad-json": (b'{"id": "d4", "labels": [\n', ":4: bad JSON"),
    "not-utf8": (b'{"id": "d4", "text": "caf\xe9", "labels": []}\n', ":4: not UTF-8"),
    "duplicate-id": (b'{"id": "d1", "labels": []}\n', "record 4 has duplicate id 'd1'"),
}


def _jsonl(rows: list[dict]) -> bytes:
    return "".join(json.dumps(row) + "\n" for row in rows).encode()


def _argv(command: str, tmp_path: Path, faulty: Path, out: Path) -> list[str]:
    tax = tmp_path / "media.tsv"
    tax.write_text(MEDIA_EDGES)
    head = [command, "--taxonomy", str(tax)]
    if command == "evaluate":
        predictions = tmp_path / "predictions.jsonl"
        predictions.write_bytes(_jsonl(CORPUS))
        return [*head, "--gold", str(faulty), "--predictions", str(predictions), "--output", str(out)]
    extra = ["--scorer", "oracle"] if command == "decode" else []
    return [*head, "--input", str(faulty), "--output", str(out), *extra]


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("command", ["fit", "decode", "linearize", "delinearize", "postprocess", "evaluate"])
def test_a_fault_on_the_last_line_writes_nothing(command, fault, tmp_path, capsys):
    faulty = tmp_path / "input.jsonl"
    line, message = FAULTS[fault]
    faulty.write_bytes(_jsonl(SEQUENCES if command == "delinearize" else CORPUS) + line)
    out = tmp_path / "out.json"
    out.write_bytes(OLD)
    argv = _argv(command, tmp_path, faulty, out)
    before = sorted(os.listdir(tmp_path))
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    error = json.loads(captured.err)  # exactly one JSON line
    assert error["error"] == "CORPUS_FORMAT"
    assert message in error["message"]
    assert out.read_bytes() == OLD
    assert sorted(os.listdir(tmp_path)) == before  # no temporary file left


@pytest.mark.parametrize(
    "line, fault",
    [
        (500, b'{"id": "x", "labels": [\n'),
        (500, b'{"id": "x", "text": "caf\xe9"}\n'),
        # Inside the first block the reader decodes, yet still reported after line 2.
        (3, b'{"id": "x", "text": "caf\xe9"}\n'),
    ],
    ids=["bad-json-500", "not-utf8-500", "not-utf8-3"],
)
@pytest.mark.parametrize("command", ["fit", "decode", "linearize"])
def test_the_first_fault_in_file_order_is_reported_first(command, line, fault, tmp_path, capsys):
    rows = [{"id": f"d{i}", "labels": ["Business"]} for i in range(1, line)]
    rows[1]["labels"] = ["Jazz"]  # line 2
    faulty = tmp_path / "input.jsonl"
    faulty.write_bytes(_jsonl(rows) + fault)
    out = tmp_path / "out.json"
    code = main(_argv(command, tmp_path, faulty, out))
    errors = [json.loads(text) for text in capsys.readouterr().err.splitlines()]
    assert code == 1
    assert errors[0] == {"error": "UNKNOWN_LABEL", "message": "document 'd2': unknown label 'Jazz'"}
    if command != "linearize":  # fit and decode --scorer oracle stop at the first fault
        assert errors[1:] == []
    else:  # linearize reports every bad record, until a fault stops the reading
        assert [e["error"] for e in errors[1:]] == ["CORPUS_FORMAT"]
        assert f"input.jsonl:{line}: " in errors[1]["message"]
    assert not out.exists()


@pytest.mark.parametrize(
    "options",
    [["--scorer", "oracle"], ["--scorer", "uniform", "--mode", "unconstrained", "--beam", "1"]],
    ids=["oracle-constrained", "uniform-unconstrained"],
)
def test_decode_writes_every_row_that_does_not_overflow(options, tmp_path, monkeypatch, capsys):
    search = decoding.constrained_beam_search

    def overflowing(tax, scorer, text, beam):
        if text == "overflow":
            raise DecodeOverflowError("no <eos>")
        return search(tax, scorer, text, beam)

    monkeypatch.setattr(decoding, "constrained_beam_search", overflowing)
    rows = [*CORPUS, {"id": "d4", "labels": ["Business"]}, {"id": "d5", "labels": ["Entertainment", "Movie", "Action"]}]
    rows[1] = {**rows[1], "text": "overflow"}
    rows[4] = {**rows[4], "text": "overflow"}
    inputs, out = tmp_path / "input.jsonl", tmp_path / "out.jsonl"
    inputs.write_bytes(_jsonl(rows))
    code = main(_argv("decode", tmp_path, inputs, out)[:-2] + options)
    summary = json.loads(capsys.readouterr().err)
    if options[1] == "oracle":
        assert (code, summary["decoded"], summary["overflow"]) == (1, 3, ["d2", "d5"])
        assert [json.loads(line)["id"] for line in out.read_bytes().splitlines()] == ["d1", "d3", "d4"]
    else:
        assert (code, summary["decoded"], summary["inconsistent"]) == (0, 5, 5)
    assert summary["documents"] == 5


@pytest.mark.parametrize("command", ["fit", "decode", "linearize", "evaluate"])
def test_a_replaced_output_gets_the_mode_open_would_give(command, tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(_jsonl(CORPUS))
    out = tmp_path / "out.json"
    old_umask = os.umask(0o027)
    try:
        with open(tmp_path / "plain", "w"):
            pass
        assert main(_argv(command, tmp_path, corpus, out)) == 0
        assert stat.S_IMODE(out.stat().st_mode) == stat.S_IMODE((tmp_path / "plain").stat().st_mode) == 0o640
        fresh = out.read_bytes()
        out.write_bytes(OLD)
        out.chmod(0o604)  # open(path, "w") keeps an existing file's mode
        assert main(_argv(command, tmp_path, corpus, out)) == 0
    finally:
        os.umask(old_umask)
    capsys.readouterr()
    assert stat.S_IMODE(out.stat().st_mode) == 0o604
    assert out.read_bytes() == fresh
    assert sorted(os.listdir(tmp_path)) == ["corpus.jsonl", "media.tsv", "out.json", "plain"] + (
        ["predictions.jsonl"] if command == "evaluate" else []
    )


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
@pytest.mark.parametrize(
    "command, target",
    [("decode", "-"), ("decode", "/dev/stdout"), ("linearize", "-"), ("linearize", "/dev/stdout"),
     ("fit", "-"), ("fit", "/dev/stdout"), ("evaluate", "-"), ("evaluate", "/dev/stdout")],
)
def test_stdout_outputs_still_work(command, target, tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_bytes(_jsonl(CORPUS))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    written = tmp_path / "written"
    outputs = []
    for out in [str(written), target]:
        argv = _argv(command, tmp_path, corpus, written)
        argv[argv.index("--output") + 1] = out
        done = subprocess.run(
            [sys.executable, "-m", "treedecode.cli", *argv],
            env=env, cwd=tmp_path, capture_output=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    table = outputs[0]  # evaluate prints its table to stdout whatever --output names
    assert (table != b"") == (command == "evaluate")
    assert outputs[1] == table + written.read_bytes() != table
    assert not (tmp_path / "-").exists()


def _balanced_tree(branching: int, depth: int) -> tuple[str, list[str], dict[str, str]]:
    edges, frontier = [], ["root"]
    for level in range(depth):
        frontier = [f"{node}.{i}" if level else f"n{i}" for node in frontier for i in range(branching)]
        edges += [(child.rpartition(".")[0] or "root", child) for child in frontier]
    parent = {child: p for p, child in edges}
    tsv = "".join(f"{p}\t{child}\n" for p, child in edges)
    return tsv, [child for _, child in edges], parent


def _peak_kib(command: str, tmp_path: Path, documents: int) -> int:
    """Peak RSS of a fresh process that runs ``fit`` or ``stats`` on ``documents`` documents."""
    tsv, labels, parent = _balanced_tree(6, 3)
    tax = tmp_path / "tree.tsv"
    tax.write_text(tsv)
    corpus = tmp_path / f"corpus-{documents}.jsonl"
    rng = random.Random(documents)
    with open(corpus, "w", encoding="utf-8") as handle:
        for i in range(documents):
            closed = set()
            for label in rng.sample(labels, rng.randint(1, 3)):
                while label != "root":
                    closed.add(label)
                    label = parent[label]
            row = {"id": f"train-{i}", "text": f"train document {i}", "labels": sorted(closed)}
            handle.write(json.dumps(row) + "\n")
    # VmHWM, not ru_maxrss: a child's ru_maxrss starts at the peak of the process that spawned
    # it, so under a larger pytest process both runs would read the same figure.
    child = (
        "import sys; from treedecode.cli import main; code = main(sys.argv[1:]); "
        "print(code, next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))"
    )
    argv = {
        "fit": ["fit", "--taxonomy", str(tax), "--input", str(corpus), "--output", str(tmp_path / "model.json")],
        "stats": ["stats", "--taxonomy", str(tax), "--split", f"train={corpus}"],
    }[command]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", child, *argv], env=env, capture_output=True, text=True, timeout=300
    )
    code, peak = done.stdout.split()[-2:]  # after what stats prints
    assert code == "0", done.stderr
    return int(peak)  # KiB


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="reads VmHWM from /proc (Linux)")
@pytest.mark.parametrize("command", ["fit", "stats"])
def test_memory_does_not_grow_with_the_corpus(command, tmp_path):
    # Reading the whole corpus first cost fit about 98 MB more and stats about 68 MB more at
    # 60,000 documents; streamed, what still grows is the set of ids that the duplicate check
    # keeps (about 6 MB).
    small = _peak_kib(command, tmp_path, 1_200)
    large = _peak_kib(command, tmp_path, 60_000)
    assert large - small < 15 * 1024, (small, large)


def test_postprocess_can_replace_its_own_input(tmp_path, capsys):
    predictions = tmp_path / "predictions.jsonl"
    predictions.write_bytes(_jsonl([{"id": "p1", "labels": ["Documentary"]}, {"id": "p2", "labels": []}]))
    assert main(_argv("postprocess", tmp_path, predictions, predictions)) == 0
    assert capsys.readouterr().out == ""
    assert predictions.read_bytes() == _jsonl([
        {"id": "p1", "labels": ["Documentary", "Entertainment", "Movie"]}, {"id": "p2", "labels": []},
    ])


def _stats(tmp_path: Path, *splits: str) -> list[str]:
    tax = tmp_path / "media.tsv"
    tax.write_text(MEDIA_EDGES)
    return ["stats", "--taxonomy", str(tax), *(arg for split in splits for arg in ["--split", split])]


def test_stats_reports_an_earlier_split_before_a_later_one(tmp_path, capsys):
    # The later split cannot even be read, but the earlier one's label error comes first.
    earlier, later = tmp_path / "earlier.jsonl", tmp_path / "later.jsonl"
    earlier.write_bytes(_jsonl([*CORPUS, {"id": "d4", "labels": ["Jazz"]}]))
    later.write_bytes(b'{"id": "x", "labels": [\n')
    code = main(_stats(tmp_path, f"a={earlier}", f"b={later}"))
    error = {"error": "UNKNOWN_LABEL", "message": "document 'd4': unknown label 'Jazz' in split 'a'"}
    assert (code, *capsys.readouterr()) == (1, "", json.dumps(error) + "\n")
    assert main(_stats(tmp_path, f"b={later}", f"a={earlier}")) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "CORPUS_FORMAT"
