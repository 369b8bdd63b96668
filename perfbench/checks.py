"""Checks that run outside the timed loop: prediction validity, search quality, deep chains.

Each function imports ``treedecode`` itself; ``source.import_treedecode``
must have run first so the checkout's ``src/`` is the one imported.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

from workloads import Tree, random_taxonomy

POP, EOS = "POP", "<eos>"
SEARCH_CASES = 300
SEARCH_WIDTHS = (1, 4)
DEEP_CHAIN_DEPTH = 1500


def invalid_predictions(stages: list[dict]) -> list[str]:
    """Constrained predictions that fail ``validate_sequence`` or ``is_consistent``."""
    from treedecode import TreeDecodeError, parse_taxonomy, read_jsonl, validate_sequence

    invalid = []
    for stage in stages:
        # A decode that wrote nothing has already failed as a stage.
        if stage["kind"] != "decode" or stage["mode"] != "constrained" or not Path(stage["predictions"]).exists():
            continue
        tax = parse_taxonomy(Path(stage["taxonomy"]).read_text(encoding="utf-8"))
        for row in read_jsonl(stage["predictions"]):
            try:
                ok = validate_sequence(tax, row["sequence"]).ok and tax.is_consistent(row["labels"])
            except (KeyError, TreeDecodeError):
                ok = False
            if not ok:
                invalid.append(f"{stage['predictions']}: {row.get('id')!r}")
    return invalid


def _best_logprob(tree: Tree, scorer, text: str) -> float:
    """Highest log probability over every valid sequence, by exhaustive depth-first enumeration.

    The automaton is re-derived here: from a stack and the labels used so
    far, the legal tokens are the unused children of the stack top, plus
    POP above the root or <eos> at the root. Each step is normalized over
    exactly those tokens, as the decoder's restricted softmax does.
    """
    best = -math.inf

    def visit(prefix: tuple[str, ...], stack: tuple[str, ...], used: frozenset[str], logprob: float) -> None:
        nonlocal best
        vocab = [c for c in tree.children.get(stack[-1], ()) if c not in used]
        vocab.append(POP if len(stack) > 1 else EOS)
        raw = scorer.score(text, prefix, vocab)
        peak = max(raw[t] for t in vocab)
        log_norm = math.log(math.fsum(math.exp(raw[t] - peak) for t in vocab))
        for token in vocab:
            extended = logprob + (raw[token] - peak - log_norm)
            if token == EOS:
                best = max(best, extended)
            elif token == POP:
                visit(prefix + (token,), stack[:-1], used, extended)
            else:
                visit(prefix + (token,), stack + (token,), used | {token}, extended)

    visit((tree.root,), (tree.root,), frozenset(), 0.0)
    return best


def search_error_rates(seed: int) -> dict[int, float]:
    """Share of tiny seeded trees where the beam's top result scores below the exhaustive optimum.

    Trees have 4-8 nodes, so enumerating every valid sequence stays cheap;
    scores come from the adversarial ``RandomScorer``.
    """
    from treedecode import RandomScorer, Taxonomy, constrained_beam_search

    rng = random.Random(f"search:{seed}")
    errors = dict.fromkeys(SEARCH_WIDTHS, 0)
    for case in range(SEARCH_CASES):
        edges = random_taxonomy(rng, rng.randint(4, 8), max_depth=rng.randint(2, 6))
        tax = Taxonomy.from_edges(edges)
        scorer = RandomScorer(rng.randrange(2**31))
        text = f"search case {case}"
        best = _best_logprob(Tree(edges), scorer, text)
        for width in SEARCH_WIDTHS:
            if constrained_beam_search(tax, scorer, text, width)[0].logprob < best - 1e-9:
                errors[width] += 1
    return {width: count / SEARCH_CASES for width, count in errors.items()}


def deep_chain_errors() -> dict[str, str]:
    """Round trip and one greedy decode on a chain of depth 1,500; maps each failed step to its error name."""
    from treedecode import Taxonomy, UniformScorer, delinearize, greedy_decode, linearize

    names = [f"c{i:04d}" for i in range(1, DEEP_CHAIN_DEPTH + 1)]
    tax = Taxonomy.from_edges(list(zip(["root", *names], names)))
    expected = ["root", *names, *[POP] * DEEP_CHAIN_DEPTH]
    steps = {
        "linearize": lambda: linearize(tax, names) == expected,
        "delinearize": lambda: delinearize(tax, expected) == set(names),
        "greedy_decode": lambda: list(greedy_decode(tax, UniformScorer(), "deep chain").tokens) == expected,
    }
    errors = {}
    for name, attempt in steps.items():
        try:
            if not attempt():
                errors[name] = "WrongOutput"
        except Exception as err:  # the probe reports any failure by name and goes on
            errors[name] = type(err).__name__
    return errors
