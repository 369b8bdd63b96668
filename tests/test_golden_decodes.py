"""Golden decodes: byte identity of beam results across seeded trees and scorers.

Every decode below is serialized (tokens, labels and the exact logprob of
every returned hypothesis) into one JSON document whose sha256 is pinned.
A change to the engine, the vocabulary, the softmax or a scorer that moves
any result, its order or the last bit of a log probability changes the
digest. When a change is meant to move results, re-derive the digest and
say why in the change log.
"""

from __future__ import annotations

import hashlib
import json
import random

from conftest import random_consistent_labels, random_taxonomy
from treedecode import (
    RandomScorer,
    Taxonomy,
    UniformScorer,
    constrained_beam_search,
    fit_bigram_scorer,
    unconstrained_decode,
)

GOLDEN_SHA256 = "7cff84969d235065870b4490be600dd80647b95841a60b2e0d19ba679e700bb8"


def _golden_results() -> list:
    rng = random.Random(3101)
    results = []
    for case in range(40):
        tree = random_taxonomy(rng, rng.randint(2, 16), max_depth=rng.randint(1, 4))
        # random_taxonomy names children in creation order; shuffling the
        # edges makes the input child order differ from the tie-break order.
        edges = [(parent, child) for parent in tree.nodes for child in tree.children(parent)]
        rng.shuffle(edges)
        tax = Taxonomy.from_edges(edges)
        text = f"doc {case}"
        corpus = [("", random_consistent_labels(rng, tax)) for _ in range(rng.randint(1, 6))]
        scorers = (
            ("uniform", UniformScorer()),
            ("random", RandomScorer(seed=case)),
            ("bigram", fit_bigram_scorer(tax, corpus)),
        )
        for name, scorer in scorers:
            for width in (1, 4):
                ranked = constrained_beam_search(tax, scorer, text, width)
                top = unconstrained_decode(tax, scorer, text, width)
                results.append({
                    "case": case,
                    "scorer": name,
                    "beam": width,
                    "constrained": [r.to_dict(text) for r in ranked],
                    "unconstrained": top.to_dict(text),
                })
    return results


def test_golden_decodes_are_byte_identical():
    payload = json.dumps(_golden_results(), sort_keys=True).encode("utf-8")
    assert hashlib.sha256(payload).hexdigest() == GOLDEN_SHA256
