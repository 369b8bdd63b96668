"""Command-line surface: validate, linearize, fit, decode, postprocess, evaluate, stats.

Exit codes: 0 success, 1 domain error (invalid taxonomy, inconsistent
labels, alignment problems, ...), 2 I/O or usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from . import decoding, metrics, taxonomy
from .corpus import DocumentRecord, read_documents, read_jsonl, record_id, write_jsonl
from .errors import (
    AlignmentError,
    CorpusFormatError,
    DecodeOverflowError,
    InconsistentLabelSetError,
    InvalidTaxonomyError,
    ModelMismatchError,
    TreeDecodeError,
    UnknownLabelError,
)
from .linearizer import delinearize, linearize
from .scorers import BigramScorer, OracleScorer, UniformScorer, fit_bigram_scorer
from .taxonomy import Taxonomy, dataset_stats, parse_taxonomy, validate_taxonomy
from .tokens import parse_sequence, render_sequence


def _fail(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)


def _taxonomy_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        issue = taxonomy.Issue("ENCODING", f"{path} is not UTF-8 ({err})")
        raise InvalidTaxonomyError(taxonomy.ValidationReport((issue,))) from None


def _load_taxonomy(path: str) -> Taxonomy:
    return parse_taxonomy(_taxonomy_text(path))


def _write_rows(path: str, rows: list[dict]) -> None:
    if path == "-":
        for row in rows:
            print(json.dumps(row))
    else:
        write_jsonl(path, rows)


def cmd_validate(args: argparse.Namespace) -> int:
    report = validate_taxonomy(_taxonomy_text(args.taxonomy))
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


def _labels(doc: DocumentRecord) -> frozenset[str]:
    """A record's labels, which must be present (``[]`` is an empty set)."""
    if doc.labels is None:
        raise CorpusFormatError(f"document {doc.id!r} has no labels")
    return doc.labels


def cmd_linearize(args: argparse.Namespace) -> int:
    tax = _load_taxonomy(args.taxonomy)
    documents = read_documents(args.input)
    rows = []
    problems = []
    repaired = 0
    for doc in documents:
        labels = _labels(doc)
        try:
            closed = tax.ancestor_closure(labels) if args.closure else labels
            repaired += len(closed) > len(labels)
            rows.append({"id": doc.id, "sequence": render_sequence(linearize(tax, closed))})
        except (UnknownLabelError, InconsistentLabelSetError) as err:
            problems.append(f"document {doc.id!r}: {err}")
    if problems:
        for problem in problems:
            _fail(problem)
        return 1
    _write_rows(args.output, rows)
    if args.closure and repaired:
        print(f"ancestor closure repaired {repaired} document(s)", file=sys.stderr)
    return 0


def _sequence_tokens(path: str, index: int, record: dict) -> list[str]:
    sequence = record.get("sequence")
    if isinstance(sequence, str):
        return parse_sequence(sequence)
    if isinstance(sequence, list) and all(isinstance(t, str) for t in sequence):
        return sequence
    raise CorpusFormatError(
        f"{path}: record {index} needs a sequence string or list of strings, got {sequence!r}"
    )


def cmd_delinearize(args: argparse.Namespace) -> int:
    tax = _load_taxonomy(args.taxonomy)
    rows = []
    for index, record in enumerate(read_jsonl(args.input), start=1):
        doc_id = record_id(args.input, index, record)
        tokens = _sequence_tokens(args.input, index, record)
        rows.append({"id": doc_id, "labels": sorted(delinearize(tax, tokens))})
    _write_rows(args.output, rows)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    tax = _load_taxonomy(args.taxonomy)
    documents = read_documents(args.input)
    scorer = fit_bigram_scorer(
        tax, ((doc.text, _labels(doc)) for doc in documents), closure=args.closure
    )
    scorer.save(args.output)
    if scorer.repaired_docs:
        print(f"ancestor closure repaired {scorer.repaired_docs} document(s)", file=sys.stderr)
    return 0


def _scorer_factory(args: argparse.Namespace, tax: Taxonomy):
    if args.scorer == "uniform":
        shared = UniformScorer()
        return lambda doc: shared
    if args.scorer == "bigram":
        if args.model is None:
            raise TreeDecodeError("--scorer bigram requires --model")
        loaded = BigramScorer.load(args.model)
        alphabet = decoding.full_alphabet(tax)
        if loaded.alphabet != alphabet:
            only_model = sorted(set(loaded.alphabet) - set(alphabet))
            only_taxonomy = sorted(set(alphabet) - set(loaded.alphabet))
            raise ModelMismatchError(
                f"{args.model} does not fit this taxonomy: its alphabet differs (only in the "
                f"model {only_model[:5]}, only in the taxonomy {only_taxonomy[:5]})"
            )
        return lambda doc: loaded
    return lambda doc: OracleScorer(linearize(tax, set(_labels(doc))))


def cmd_decode(args: argparse.Namespace) -> int:
    tax = _load_taxonomy(args.taxonomy)
    documents = read_documents(args.input)
    make_scorer = _scorer_factory(args, tax)

    def decode_one(doc: DocumentRecord):
        scorer = make_scorer(doc)
        try:
            if args.mode == "constrained":
                result = decoding.constrained_beam_search(tax, scorer, doc.text, args.beam)[0]
            else:
                result = decoding.unconstrained_decode(tax, scorer, doc.text, args.beam)
        except DecodeOverflowError:
            return doc.id, None
        return doc.id, result

    if args.workers > 1:
        # Threads keep scorers shared and executor.map preserves input order,
        # so output is identical to the serial run.
        with ThreadPoolExecutor(max_workers=args.workers) as pool:
            outcomes = list(pool.map(decode_one, documents))
    else:
        outcomes = [decode_one(doc) for doc in documents]

    rows = []
    overflowed = []
    inconsistent = 0
    for doc_id, result in outcomes:
        if result is None:
            overflowed.append(doc_id)
            continue
        if not tax.is_consistent(result.labels):
            inconsistent += 1
        rows.append(result.to_dict(doc_id))
    _write_rows(args.output, rows)
    summary = {
        "documents": len(documents),
        "decoded": len(rows),
        "inconsistent": inconsistent,
        "overflow": overflowed,
    }
    print(json.dumps(summary), file=sys.stderr)
    return 1 if overflowed else 0


def cmd_postprocess(args: argparse.Namespace) -> int:
    tax = _load_taxonomy(args.taxonomy)
    rows = []
    offenders = []
    for doc in read_documents(args.input):
        labels = _labels(doc)
        unknown = sorted(labels.difference(tax._parent))  # the root is not a label
        if unknown:
            offenders.append(f"document {doc.id!r}: unknown labels {unknown}")
            continue
        rows.append({"id": doc.id, "labels": sorted(tax.ancestor_closure(labels))})
    if offenders:
        for offender in offenders:
            _fail(offender)
        return 1
    _write_rows(args.output, rows)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    tax = _load_taxonomy(args.taxonomy)
    gold_docs = read_documents(args.gold)
    predictions = {doc.id: set(_labels(doc)) for doc in read_documents(args.predictions)}
    gold_ids = [doc.id for doc in gold_docs]
    missing = sorted(set(gold_ids) - set(predictions))
    extra = sorted(set(predictions) - set(gold_ids))
    if missing or extra:
        raise AlignmentError(
            f"ids without predictions: {missing or 'none'}; predictions without gold: {extra or 'none'}"
        )
    gold_sets = [set(_labels(doc)) for doc in gold_docs]
    pred_sets = [predictions[doc_id] for doc_id in gold_ids]
    report = metrics.evaluate(tax, gold_sets, pred_sets)
    print(report.format_table())
    if args.output:
        Path(args.output).write_text(report.to_json() + "\n", encoding="utf-8")
    else:
        print(report.to_json())
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    tax = _load_taxonomy(args.taxonomy)
    corpora = {}
    for entry in args.split or []:
        name, _, path = entry.partition("=")
        if not name or not path or name in corpora:
            raise TreeDecodeError(f"--split wants NAME=PATH with a new, non-empty NAME, got {entry!r}")
        corpora[name] = read_documents(path)
    print(json.dumps(dataset_stats(tax, corpora).to_dict(), indent=2))
    return 0


def _positive_int(value: str) -> int:
    number = int(value)
    if number < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {number}")
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="treedecode",
        description="Taxonomy-constrained sequence decoding for hierarchical text classification.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def add(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        sub = commands.add_parser(name, help=help_text)
        sub.set_defaults(handler=handler)
        sub.add_argument("--taxonomy", required=True, help="taxonomy TSV edge list")
        return sub

    add("validate", cmd_validate, "check a taxonomy file and print the validation report")

    sub = add("linearize", cmd_linearize, "turn gold label sets into token sequences")
    sub.add_argument("--input", required=True, help="corpus JSONL with id/text/labels")
    sub.add_argument("--output", default="-", help="output JSONL (default stdout)")
    sub.add_argument("--closure", action="store_true", help="repair inconsistent label sets first")

    sub = add("delinearize", cmd_delinearize, "turn token sequences back into label arrays")
    sub.add_argument("--input", required=True, help="JSONL with id/sequence")
    sub.add_argument("--output", default="-")

    sub = add("fit", cmd_fit, "fit the bigram scorer on a gold corpus")
    sub.add_argument("--input", required=True, help="corpus JSONL with id/text/labels")
    sub.add_argument("--output", required=True, help="model JSON file to write")
    sub.add_argument("--closure", action="store_true", help="repair inconsistent label sets first")

    sub = add("decode", cmd_decode, "decode documents into label sequences")
    sub.add_argument("--input", required=True, help="corpus JSONL (labels needed for --scorer oracle)")
    sub.add_argument("--output", default="-")
    sub.add_argument("--beam", type=_positive_int, default=4, help="beam width (default 4)")
    sub.add_argument("--mode", choices=["constrained", "unconstrained"], default="constrained")
    sub.add_argument("--scorer", choices=["uniform", "oracle", "bigram"], default="uniform")
    sub.add_argument("--model", help="bigram model file (with --scorer bigram)")
    sub.add_argument(
        "--workers", type=_positive_int, default=1,
        help="parallel decoder threads (default 1); output order is preserved",
    )

    sub = add("postprocess", cmd_postprocess, "apply ancestor closure to predicted label sets")
    sub.add_argument("--input", required=True, help="predictions JSONL with id/labels")
    sub.add_argument("--output", default="-")

    sub = add("evaluate", cmd_evaluate, "score predictions against gold labels")
    sub.add_argument("--gold", required=True, help="gold corpus JSONL with id/labels")
    sub.add_argument("--predictions", required=True, help="predictions JSONL with id/labels")
    sub.add_argument("--output", help="write the JSON report here instead of stdout")

    sub = add("stats", cmd_stats, "dataset statistics per split")
    sub.add_argument("--split", action="append", metavar="NAME=PATH", help="repeatable")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except TreeDecodeError as err:
        print(json.dumps({"error": err.code, "message": str(err)}), file=sys.stderr)
        return 1
    except OSError as err:
        _fail(str(err))
        return 2


if __name__ == "__main__":
    sys.exit(main())
