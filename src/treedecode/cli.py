"""Command-line surface: validate, linearize, fit, decode, postprocess, evaluate, stats.

Exit codes: 0 success, 1 domain error (invalid taxonomy, inconsistent
labels, alignment problems, ...), 2 I/O or usage error. ``main(argv)`` may
be called repeatedly in one process; it builds its parser once. A command
imports the decoder, the scorers, the metrics and the linearizer only if it
runs them, so a fresh ``treedecode validate`` compiles none of the four.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable
from pathlib import Path

from . import taxonomy
from .corpus import buffered_output, iter_documents, records_with_ids, required_labels
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
from .taxonomy import Taxonomy, dataset_stats, parse_taxonomy, validate_taxonomy
from .tokens import POP, parse_sequence, render_sequence


# The library's closure error advises a call; the commands advise a step a user can take.
_UNCLOSED = "label set is not closed under ancestors; "


class _Reported(Exception):
    """Raised once a command's errors are on stderr: it exits 1 and writes nothing."""


def _report(code: str, message: object, document: str | None = None) -> None:
    """Print one domain error to stderr as a JSON line; one in a document reads ``document '<id>': ...``."""
    text = f"{message}" if document is None else f"document {document!r}: {message}"
    print(json.dumps({"error": code, "message": text}), file=sys.stderr)


def _taxonomy_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as err:
        issue = taxonomy.Issue("ENCODING", f"{path} is not UTF-8 ({err})")
        raise InvalidTaxonomyError(taxonomy.ValidationReport((issue,))) from None


def _load_taxonomy(path: str) -> Taxonomy:
    return parse_taxonomy(_taxonomy_text(path))


def _write_each(path: str, records: Iterable[tuple[str, object]], row) -> None:
    """Write ``{"id": id, **row(record)}`` for every ``(id, record)`` as it is read, or report
    every record that fails and raise ``_Reported``, so that nothing is written."""
    failed = False
    with buffered_output(sys.stdout if path == "-" else path) as out:
        for doc_id, record in records:
            try:
                fields = row(record)
            except CorpusFormatError as err:  # names its record itself
                _report(err.code, err)
                failed = True
            except TreeDecodeError as err:
                _report(err.code, err, doc_id)
                failed = True
            else:
                out.write(json.dumps({"id": doc_id, **fields}) + "\n")
        if failed:
            raise _Reported


def cmd_validate(args: argparse.Namespace) -> int:
    report = validate_taxonomy(_taxonomy_text(args.taxonomy))
    print(json.dumps(report.to_dict(), indent=2))
    return 0 if report.ok else 1


def cmd_linearize(args: argparse.Namespace) -> int:
    from . import linearizer

    tax = _load_taxonomy(args.taxonomy)
    repaired = 0

    def row(doc):
        nonlocal repaired
        labels = required_labels(doc)
        closed = tax.ancestor_closure(labels) if args.closure else labels
        repaired += len(closed) > len(labels)
        try:
            return {"sequence": render_sequence(linearizer.linearize(tax, closed))}
        except InconsistentLabelSetError:
            raise InconsistentLabelSetError(_UNCLOSED + "rerun with --closure") from None

    _write_each(args.output, ((doc.id, doc) for doc in iter_documents(args.input)), row)
    if repaired:
        print(f"ancestor closure repaired {repaired} document(s)", file=sys.stderr)
    return 0


def cmd_delinearize(args: argparse.Namespace) -> int:
    from . import linearizer

    tax = _load_taxonomy(args.taxonomy)

    def row(numbered):  # (record number, record)
        index, record = numbered
        tokens = record.get("sequence")
        if isinstance(tokens, str):
            tokens = parse_sequence(tokens)
        elif not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens)):
            raise CorpusFormatError(
                f"{args.input}: record {index} needs a sequence string or list of strings, got {tokens!r}"
            )
        return {"labels": sorted(linearizer.delinearize(tax, tokens))}

    records = ((doc_id, (index, record)) for index, doc_id, record in records_with_ids(args.input))
    _write_each(args.output, records, row)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    from . import scorers

    tax = _load_taxonomy(args.taxonomy)
    doc = None
    def gold():  # the fit counts one document at a time, so a label error is ``doc``'s
        nonlocal doc
        for doc in iter_documents(args.input):
            yield doc.text, required_labels(doc)
    try:
        scorer = scorers.fit_bigram_scorer(tax, gold(), closure=args.closure)
    except UnknownLabelError as err:
        _report(err.code, err, doc.id)
        return 1
    except InconsistentLabelSetError as err:
        _report(err.code, _UNCLOSED + "rerun with --closure", doc.id)
        return 1
    scorer.save(sys.stdout if args.output == "-" else args.output)
    if scorer.repaired_docs:
        print(f"ancestor closure repaired {scorer.repaired_docs} document(s)", file=sys.stderr)
    return 0


def _shared_scorer(args: argparse.Namespace, tax: Taxonomy):
    """The scorer every document shares, or None for the oracle, which is built per document."""
    from . import decoding, scorers

    if args.model is not None and args.scorer != "bigram":
        raise TreeDecodeError(f"--model is only read by --scorer bigram, not --scorer {args.scorer}")
    if args.scorer == "uniform":
        return scorers.UniformScorer()
    if args.scorer == "bigram":
        if args.model is None:
            raise TreeDecodeError("--scorer bigram requires --model")
        loaded = scorers.BigramScorer.load(args.model)
        # Scores read the counts and the alphabet's size only, so its order carries no meaning.
        model, taxonomy = set(loaded.alphabet), set(decoding.full_alphabet(tax))
        if model != taxonomy:
            raise ModelMismatchError(
                f"{args.model} does not fit this taxonomy: its alphabet differs (only in the "
                f"model {sorted(model - taxonomy)[:5]}, only in the taxonomy {sorted(taxonomy - model)[:5]})"
            )
        # fit counts transitions after the root, each label and POP only; <eos> ends a sequence.
        contexts = set(loaded.counts) - {*tax.nodes, POP}
        if contexts:
            raise ModelMismatchError(
                f"{args.model} does not fit this taxonomy: it counts transitions after tokens that "
                f"are neither a taxonomy node nor POP {sorted(contexts)[:5]}"
            )
        return loaded
    return None


def cmd_decode(args: argparse.Namespace) -> int:
    from . import decoding, linearizer, scorers

    tax = _load_taxonomy(args.taxonomy)
    shared = _shared_scorer(args, tax)
    documents = inconsistent = 0
    overflowed = []
    # A scorer that ignores the text gives every document the same search: it runs for the
    # first document only, and its result (None for an overflow) serves the rest of this run.
    blind = getattr(shared, "reads_text", True) is False
    with buffered_output(sys.stdout if args.output == "-" else args.output) as out:
        for documents, doc in enumerate(iter_documents(args.input), start=1):
            if not blind or documents == 1:
                try:
                    scorer = shared
                    if shared is None:
                        scorer = scorers.OracleScorer(linearizer.linearize(tax, set(required_labels(doc))))
                    if args.mode == "constrained":
                        result = decoding.constrained_beam_search(tax, scorer, doc.text, args.beam)[0]
                    else:
                        result = decoding.unconstrained_decode(tax, scorer, doc.text, args.beam)
                except DecodeOverflowError:
                    result = None
                except UnknownLabelError as err:  # the oracle's gold set
                    _report(err.code, err, doc.id)
                    raise _Reported from None
                except InconsistentLabelSetError as err:  # decode has no --closure to apply
                    _report(err.code, _UNCLOSED + "run treedecode postprocess on the gold file first", doc.id)
                    raise _Reported from None
                if result is not None:
                    # A result is checked, and its fields after the leading "id" encoded, once per search.
                    consistent = tax.is_consistent(result.labels)
                    tail = json.dumps(result.to_dict(""))[len('{"id": ""'):] + "\n"
            if result is None:
                overflowed.append(doc.id)
                continue
            inconsistent += not consistent
            out.write('{"id": ' + json.dumps(doc.id) + tail)
    summary = {
        "documents": documents,
        "decoded": documents - len(overflowed),
        "inconsistent": inconsistent,
        "overflow": overflowed,
    }
    print(json.dumps(summary), file=sys.stderr)
    return 1 if overflowed else 0


def cmd_postprocess(args: argparse.Namespace) -> int:
    tax = _load_taxonomy(args.taxonomy)

    def row(doc):
        return {"labels": sorted(tax.ancestor_closure(required_labels(doc)))}

    _write_each(args.output, ((doc.id, doc) for doc in iter_documents(args.input)), row)
    return 0


def cmd_evaluate(args: argparse.Namespace) -> int:
    from . import metrics

    tax = _load_taxonomy(args.taxonomy)
    # Records are read one at a time; gold keeps no text, and predictions are kept for alignment.
    gold_docs = [doc._replace(text="") for doc in iter_documents(args.gold)]
    predictions = {doc.id: required_labels(doc, "--predictions") for doc in iter_documents(args.predictions)}
    gold_ids = [doc.id for doc in gold_docs]
    missing = sorted(set(gold_ids) - set(predictions))
    extra = sorted(set(predictions) - set(gold_ids))
    if missing or extra:
        raise AlignmentError(
            f"ids without predictions: {missing or 'none'}; predictions without gold: {extra or 'none'}"
        )
    gold_sets = [required_labels(doc, "--gold") for doc in gold_docs]
    pred_sets = [predictions[doc_id] for doc_id in gold_ids]
    try:
        report = metrics.evaluate(tax, gold_sets, pred_sets)
    except UnknownLabelError as err:  # sets are checked in order: the first holding the label failed
        doc_id, gold = next((i, g) for i, g, p in zip(gold_ids, gold_sets, pred_sets) if err.label in g | p)
        raise UnknownLabelError(err.label, doc_id, "--gold" if err.label in gold else "--predictions") from None
    print(report.format_table(), flush=True)  # before a --output that reopens stdout, as /dev/stdout does
    with buffered_output(sys.stdout if args.output == "-" else args.output) as out:
        out.write(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    tax = _load_taxonomy(args.taxonomy)
    paths = {}
    for entry in args.split or []:  # all checked before any file is opened
        name, _, path = entry.partition("=")
        if not name or not path or name in paths:
            raise TreeDecodeError(f"--split wants NAME=PATH with a new, non-empty NAME, got {entry!r}")
        paths[name] = path
    corpora = {name: iter_documents(path) for name, path in paths.items()}  # each read as it is counted
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
    sub.add_argument("--output", required=True, help="model JSON file to write (- for stdout)")
    sub.add_argument("--closure", action="store_true", help="repair inconsistent label sets first")

    sub = add("decode", cmd_decode, "decode documents into label sequences")
    sub.add_argument("--input", required=True, help="corpus JSONL (labels needed for --scorer oracle)")
    sub.add_argument("--output", default="-")
    sub.add_argument("--beam", type=_positive_int, default=4, help="beam width (default 4)")
    sub.add_argument("--mode", choices=["constrained", "unconstrained"], default="constrained")
    sub.add_argument("--scorer", choices=["uniform", "oracle", "bigram"], default="uniform")
    sub.add_argument("--model", help="bigram model file (with --scorer bigram)")
    sub.add_argument(
        "--workers", type=int, choices=[1], default=1,
        help="only 1: decoding is serial; kept so that existing command lines still parse",
    )

    sub = add("postprocess", cmd_postprocess, "apply ancestor closure to predicted label sets")
    sub.add_argument("--input", required=True, help="predictions JSONL with id/labels")
    sub.add_argument("--output", default="-")

    sub = add("evaluate", cmd_evaluate, "score predictions against gold labels")
    sub.add_argument("--gold", required=True, help="gold corpus JSONL with id/labels")
    sub.add_argument("--predictions", required=True, help="predictions JSONL with id/labels")
    sub.add_argument("--output", default="-", help="JSON report file (default stdout, after the table)")

    sub = add("stats", cmd_stats, "dataset statistics per split")
    sub.add_argument("--split", action="append", metavar="NAME=PATH", help="repeatable")

    return parser


# The parser main uses, built on first use and kept: parsing never mutates it.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except _Reported:
        return 1
    except TreeDecodeError as err:
        _report(err.code, err)
        return 1
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
