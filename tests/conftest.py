"""Shared fixtures, random generators, and independent replay oracles.

The oracle helpers here re-derive sequence validity by literal
full-prefix replay so decoder tests never check the decoder against
itself.
"""

from __future__ import annotations

import random
import time

import pytest

from treedecode import EOS, POP, Taxonomy

MEDIA_EDGES = (
    "Root\tEntertainment\n"
    "Root\tBusiness\n"
    "Entertainment\tMovie\n"
    "Movie\tDocumentary\n"
    "Movie\tAction\n"
    "Business\tCompany\n"
)

TWO_PATH_LABELS = frozenset({"Entertainment", "Movie", "Documentary", "Business", "Company"})

TWO_PATH_SEQUENCE = [
    "Root", "Entertainment", "Movie", "Documentary", "POP", "POP", "POP",
    "Business", "Company", "POP", "POP",
]

TWO_PATH_RENDERED = "Root Entertainment Movie Documentary POP POP POP Business Company POP POP"

# Frozen reference run: greedy decode under the uniform scorer on the media
# taxonomy, ties resolved lexicographically (labels before POP/<eos>).
UNIFORM_GREEDY_RENDERED = (
    "Root Business Company POP POP Entertainment Movie Action POP Documentary POP POP POP"
)


@pytest.fixture(scope="session")
def media_tax() -> Taxonomy:
    from treedecode import parse_taxonomy

    return parse_taxonomy(MEDIA_EDGES)


def random_taxonomy(rng: random.Random, n_nodes: int, max_depth: int = 6) -> Taxonomy:
    """Random rooted tree with ``n_nodes`` total nodes (root included)."""
    assert n_nodes >= 2
    edges = []
    depths = {"root": 0}
    nodes = ["root"]
    for i in range(1, n_nodes):
        name = f"n{i:03d}"
        parent = rng.choice([n for n in nodes if depths[n] < max_depth])
        edges.append((parent, name))
        depths[name] = depths[parent] + 1
        nodes.append(name)
    return Taxonomy.from_edges(edges)


def shuffled_taxonomy(rng: random.Random, n_nodes: int, max_depth: int = 6) -> Taxonomy:
    """``random_taxonomy`` with its edges shuffled, so input child order is not name order."""
    tree = random_taxonomy(rng, n_nodes, max_depth)
    edges = [(parent, child) for parent in tree.nodes for child in tree.children(parent)]
    rng.shuffle(edges)
    return Taxonomy.from_edges(edges)


# Names that fall between or next to ``<eos>`` and ``POP`` as plain strings,
# where plain string order and the tie-break order disagree.
STRADDLING_NAMES = ("<a", "<f", "<eos0", "POO", "POQ", "POP0", "Z", "a", "eos", "pop")


def straddling_taxonomy(rng: random.Random, n_nodes: int) -> Taxonomy:
    """``shuffled_taxonomy`` with up to ten labels renamed from ``STRADDLING_NAMES``."""
    tree = shuffled_taxonomy(rng, n_nodes)
    names = dict(zip(rng.sample(tree.labels, k=len(tree.labels)), STRADDLING_NAMES))
    edges = [(p, c) for p in tree.nodes for c in tree.children(p)]
    return Taxonomy.from_edges([(names.get(p, p), names.get(c, c)) for p, c in edges])


def random_consistent_labels(rng: random.Random, tax: Taxonomy, max_seeds: int = 4) -> set[str]:
    """Non-empty consistent label set: a few random nodes plus their ancestor paths."""
    labels = tax.labels
    seeds = rng.sample(labels, k=rng.randint(1, min(max_seeds, len(labels))))
    return tax.ancestor_closure(seeds)


def oracle_stack_and_used(tax: Taxonomy, tokens) -> tuple[tuple[str, ...], frozenset[str]]:
    """Literal full-prefix replay (push label / pop on POP), no validity checks."""
    stack = [tokens[0]]
    used = {tokens[0]}
    for token in tokens[1:]:
        if token == POP:
            stack.pop()
        elif token != EOS:
            stack.append(token)
            used.add(token)
    return tuple(stack), frozenset(used - {tax.root})


def oracle_prefix_valid(tax: Taxonomy, tokens) -> bool:
    """Validity by replay: root anchor; push an unused child of the stack top;
    POP only above the root; <eos> only at the root and only as the last token."""
    if not tokens or tokens[0] != tax.root:
        return False
    stack = [tax.root]
    used = {tax.root}
    last = len(tokens) - 1
    for position in range(1, len(tokens)):
        token = tokens[position]
        if token == EOS:
            if position != last or len(stack) != 1:
                return False
        elif token == POP:
            if len(stack) == 1:
                return False
            stack.pop()
        else:
            if token not in tax or token in used or token not in tax.children(stack[-1]):
                return False
            stack.append(token)
            used.add(token)
    return True


def oracle_continuations(tax: Taxonomy, prefix) -> set[str]:
    """Brute force: every token whose append keeps the prefix valid."""
    candidates = set(tax.nodes) | {POP, EOS}
    return {t for t in candidates if oracle_prefix_valid(tax, list(prefix) + [t])}


def oracle_reachable_states(tax: Taxonomy):
    """All reachable automaton states, each with a witness prefix.

    States are deduplicated on (stack, used-labels) since the legal-token
    set depends only on those; the raw prefix space is factorial in
    sibling count.
    """
    start = (tax.root,)
    first = oracle_stack_and_used(tax, start)
    states = {first: start}
    queue = [start]
    while queue:
        prefix = queue.pop()
        for token in oracle_continuations(tax, prefix):
            if token == EOS:
                continue
            extended = prefix + (token,)
            key = oracle_stack_and_used(tax, extended)
            if key not in states:
                states[key] = extended
                queue.append(extended)
    return states


def oracle_complete_sequences(tax: Taxonomy) -> set[tuple[str, ...]]:
    """Every automaton-valid complete sequence (stored form, no <eos>), by brute force."""
    results: set[tuple[str, ...]] = set()
    queue = [(tax.root,)]
    while queue:
        prefix = queue.pop()
        for token in oracle_continuations(tax, prefix):
            if token == EOS:
                results.add(prefix)
            else:
                queue.append(prefix + (token,))
    return results


def pytest_configure(config):
    config._suite_started_at = time.perf_counter()


def pytest_collection_modifyitems(items):
    # Acceptance runs last so its suite-runtime criterion covers everything else.
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


@pytest.fixture(scope="session")
def suite_started_at(request) -> float:
    return request.config._suite_started_at
