"""Seeded inputs for the three benchmark workloads.

Every generator takes a ``random.Random`` built from the workload seed
and never iterates a set without sorting it first, so one seed gives
byte-identical files in every process. ``build`` writes a workload's
taxonomies and corpora into a directory and returns the plan that
``pipeline.py`` executes: the ``treedecode`` CLI stages, in order.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

# Sizes are fixed so every seed does the same amount of work.
BIGRAM_BRANCHING, BIGRAM_DEPTH = 6, 3  # 259 nodes
BIGRAM_TRAIN_DOCS, BIGRAM_TEST_DOCS = 1200, 300
WIDE_BRANCHING, WIDE_DEPTH = 12, 2  # 157 nodes, about 0.3 s per uniform decode
WIDE_TRAIN_DOCS, WIDE_TEST_DOCS = 100, 3
ABLATION_NODES, ABLATION_MAX_DEPTH = 31, 6
ABLATION_TREES_PER_KIND = 4  # trees whose unconstrained decode truncates, and as many that stop early
ABLATION_TRAIN_DOCS, ABLATION_TEST_DOCS = 200, 2
BEAM = "4"


def balanced_taxonomy(rng: random.Random, branching: int, depth: int) -> list[tuple[str, str]]:
    """Edges of a complete tree; node names are a seeded permutation, so tie-break order varies."""
    total = sum(branching**d for d in range(depth + 1))
    names = [f"n{i:04d}" for i in rng.sample(range(1, total), total - 1)]
    edges = []
    frontier = ["root"]
    for _ in range(depth):
        nxt = []
        for parent in frontier:
            for _ in range(branching):
                child = names.pop()
                edges.append((parent, child))
                nxt.append(child)
        frontier = nxt
    return edges


def random_taxonomy(rng: random.Random, n_nodes: int, max_depth: int) -> list[tuple[str, str]]:
    """Edges of a random rooted tree: each new node hangs off a random shallow-enough node."""
    depths = {"root": 0}
    nodes = ["root"]
    edges = []
    for i in range(1, n_nodes):
        name = f"n{i:03d}"
        parent = rng.choice([n for n in nodes if depths[n] < max_depth])
        edges.append((parent, name))
        depths[name] = depths[parent] + 1
        nodes.append(name)
    return edges


class Tree:
    """Just enough tree structure to draw label sets without importing the program."""

    def __init__(self, edges: list[tuple[str, str]]):
        self.edges = edges
        self.parent = {child: parent for parent, child in edges}
        self.children: dict[str, list[str]] = {}
        for parent, child in edges:
            self.children.setdefault(parent, []).append(child)
        self.labels = [child for _, child in edges]
        self.root = edges[0][0]

    def closure(self, labels) -> list[str]:
        closed = set()
        for label in labels:
            while label != self.root and label not in closed:
                closed.add(label)
                label = self.parent[label]
        return sorted(closed)

    def tsv(self) -> str:
        return "".join(f"{parent}\t{child}\n" for parent, child in self.edges)


def closure_of_random_nodes(rng: random.Random, tree: Tree) -> list[str]:
    """The gold rule of the corpus workloads: the closure of 1-3 random nodes."""
    return tree.closure(rng.sample(tree.labels, k=rng.randint(1, 3)))


def ablation_gold(rng: random.Random, tree: Tree) -> list[str]:
    """Plain root paths mixed with sibling fans, as in the paper's ablation."""
    if rng.random() < 0.4:
        parents = [n for n in [tree.root, *tree.labels] if len(tree.children.get(n, ())) >= 2]
        if parents:
            parent = rng.choice(parents)
            kids = tree.children[parent]
            chosen = rng.sample(kids, k=rng.randint(2, min(4, len(kids))))
            return tree.closure(chosen + ([parent] if parent != tree.root else []))
    return closure_of_random_nodes(rng, tree)


def noisy(rng: random.Random, tree: Tree, labels: list[str]) -> list[str]:
    """Drop or swap each gold label with probability 0.15; the result may be inconsistent."""
    kept = set()
    for label in labels:
        if rng.random() < 0.15:
            if rng.random() < 0.5:
                continue
            kept.add(rng.choice(tree.labels))
        else:
            kept.add(label)
    return sorted(kept) or [rng.choice(tree.labels)]


def write_corpus(path: Path, prefix: str, label_sets: list[list[str]]) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        for i, labels in enumerate(label_sets):
            row = {"id": f"{prefix}-{i}", "text": f"{prefix} document {i}", "labels": labels}
            handle.write(json.dumps(row) + "\n")


def _pipeline(
    work: Path, name: str, tree: Tree, train: list, test: list, scorer: str, modes: tuple[str, ...], closure: bool
) -> list[dict]:
    """Write one tree's inputs and return its stages: fit, then decode and evaluate per mode."""
    taxonomy, train_path, test_path, model = (
        work / f"{name}.tsv", work / f"{name}.train.jsonl", work / f"{name}.test.jsonl", work / f"{name}.model.json"
    )
    taxonomy.write_text(tree.tsv(), encoding="utf-8")
    write_corpus(train_path, f"{name}-train", train)
    write_corpus(test_path, f"{name}-test", test)
    fit = ["fit", "--taxonomy", str(taxonomy), "--input", str(train_path), "--output", str(model)]
    stages = [{"kind": "fit", "argv": fit + (["--closure"] if closure else []), "model": str(model)}]
    for mode in modes:
        predictions = work / f"{name}.{mode}.pred.jsonl"
        report = work / f"{name}.{mode}.report.json"
        decode = [
            "decode", "--taxonomy", str(taxonomy), "--input", str(test_path), "--output", str(predictions),
            "--scorer", scorer, "--beam", BEAM, "--mode", mode, "--workers", "1",
        ]
        if scorer == "bigram":
            decode += ["--model", str(model)]
        stages.append({
            "kind": "decode", "argv": decode, "mode": mode, "docs": len(test),
            "taxonomy": str(taxonomy), "predictions": str(predictions),
        })
        stages.append({
            "kind": "evaluate", "mode": mode, "report": str(report),
            "argv": [
                "evaluate", "--taxonomy", str(taxonomy), "--gold", str(test_path),
                "--predictions", str(predictions), "--output", str(report),
            ],
        })
    return stages


def _truncates(tree: Tree, train: list[list[str]]) -> bool:
    """Whether the unconstrained beam runs to the length budget on this tree's fitted model."""
    from treedecode import Taxonomy, fit_bigram_scorer, max_decode_length, unconstrained_decode

    tax = Taxonomy.from_edges(tree.edges)
    scorer = fit_bigram_scorer(tax, [("", labels) for labels in train], closure=True)
    return len(unconstrained_decode(tax, scorer, "", int(BEAM)).tokens) >= max_decode_length(tax)


def build(workload: str, seed: int, work: Path) -> list[dict]:
    """Write the inputs of ``workload`` for ``seed`` into ``work`` and return its stages."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "corpus-bigram":
        tree = Tree(balanced_taxonomy(rng, BIGRAM_BRANCHING, BIGRAM_DEPTH))
        train = [closure_of_random_nodes(rng, tree) for _ in range(BIGRAM_TRAIN_DOCS)]
        test = [closure_of_random_nodes(rng, tree) for _ in range(BIGRAM_TEST_DOCS)]
        return _pipeline(work, "bigram", tree, train, test, "bigram", ("constrained",), False)
    if workload == "uniform-wide":
        tree = Tree(balanced_taxonomy(rng, WIDE_BRANCHING, WIDE_DEPTH))
        train = [closure_of_random_nodes(rng, tree) for _ in range(WIDE_TRAIN_DOCS)]
        test = [closure_of_random_nodes(rng, tree) for _ in range(WIDE_TEST_DOCS)]
        return _pipeline(work, "wide", tree, train, test, "uniform", ("constrained",), False)
    if workload == "ablation":
        # The unconstrained beam either stops within a few tokens or runs to
        # the length budget, at about 20 times the cost. A seed's trees are
        # drawn until each kind has its quota, so every seed holds the same
        # mix and the run-to-run spread measures the program, not the draw.
        stages: list[dict] = []
        quota = {True: ABLATION_TREES_PER_KIND, False: ABLATION_TREES_PER_KIND}
        index = 0
        while any(quota.values()):
            tree = Tree(random_taxonomy(rng, ABLATION_NODES, ABLATION_MAX_DEPTH))
            gold = [ablation_gold(rng, tree) for _ in range(ABLATION_TRAIN_DOCS + ABLATION_TEST_DOCS)]
            train = [noisy(rng, tree, labels) for labels in gold[:ABLATION_TRAIN_DOCS]]
            kind = _truncates(tree, train)
            if quota[kind]:
                quota[kind] -= 1
                test = gold[ABLATION_TRAIN_DOCS:]
                stages += _pipeline(
                    work, f"tree{index:02d}", tree, train, test, "bigram", ("constrained", "unconstrained"), True
                )
            index += 1
        return stages
    raise ValueError(f"unknown workload {workload!r}")
