"""Rooted label tree: parsing, validation, and label-set queries.

The on-disk format is a UTF-8 TSV edge list, one ``parent<TAB>child`` per
line; lines starting with ``#`` and blank lines (empty, or only spaces and
tabs) are ignored. Only spaces and tabs around a name are stripped, and a
name may not contain whitespace, which separates tokens in a rendered
sequence. The root is the unique node that never appears as a child. Child
order is the order of first appearance in the file and fixes linearization
order; the decoder breaks ties by a rank table (labels by name, then
``<eos>``, then POP, as ``token_sort_key`` orders them), built once with the
taxonomy by one sort of the node names. One walk of that order fills its
alphabet and per-node start vocabularies (children, then POP or ``<eos>``).
A valid file is read, checked and laid out in linear passes: the name rules
run name by name only once a look at all names finds a suspect, and only the
children with several parents are sorted, to report them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping, Sequence
from typing import NamedTuple

from .corpus import DocumentRecord, required_labels
from .errors import InvalidTaxonomyError, UnknownLabelError
from .tokens import EOS, POP, RESERVED_TOKENS, token_sort_key


class Issue(NamedTuple):
    code: str
    message: str


class ValidationReport(NamedTuple):
    """Outcome of structural validation; ``ok`` is true iff no issues were found."""

    issues: tuple[Issue, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.issues

    def codes(self) -> set[str]:
        return {issue.code for issue in self.issues}

    def to_dict(self) -> dict:
        return {"ok": self.ok, "issues": [issue._asdict() for issue in self.issues]}


class Taxonomy:
    """Immutable rooted tree of label names.

    All queries are read-only and safe for concurrent use. Construct via
    :func:`parse_taxonomy` or :meth:`Taxonomy.from_edges`; direct
    construction skips validation and is not supported.
    """

    __slots__ = ("_root", "_parent", "_children", "_depth", "_nodes", "_rank", "_alphabet", "_start")

    def __init__(
        self,
        root: str,
        children: dict[str, tuple[str, ...]],
        nodes: tuple[str, ...],
        parent: dict[str, str],
        depth: dict[str, int],
    ):
        self._root = root
        self._children = children
        self._nodes = nodes
        self._parent = parent
        self._depth = depth
        # The decoder's tie-break order (``token_sort_key``; no node has a reserved name) as data:
        # each token's rank, the non-root alphabet, and every node's start vocabulary (the automaton
        # frame it opens when pushed: its children, then POP or ``<eos>`` for the root), in rank order.
        order = [*sorted(nodes), *sorted((EOS, POP), key=token_sort_key)]
        self._rank = dict(zip(order, range(len(order))))
        self._alphabet = tuple([token for token in order if token != root])
        # One walk of the rank order fills every start vocabulary: a label joins its parent's,
        # ``<eos>`` the root's and POP every other node's, each where its rank puts it.
        start: dict[str, list[str]] = {n: [] for n in nodes}
        for token in order:
            if token == POP:
                for node in parent:
                    start[node].append(POP)
            elif token != root:
                start[parent.get(token, root)].append(token)
        self._start = dict(zip(start, map(tuple, start.values())))

    @classmethod
    def from_edges(cls, edges: Sequence[tuple[str, str]]) -> "Taxonomy":
        """Build and validate from (parent, child) pairs; raises InvalidTaxonomyError."""
        return _build(edges, [])

    # -- queries -----------------------------------------------------------

    @property
    def root(self) -> str:
        return self._root

    @property
    def nodes(self) -> tuple[str, ...]:
        """All node names, root included, in first-appearance order."""
        return self._nodes

    @property
    def labels(self) -> tuple[str, ...]:
        """Assignable labels: every node except the root."""
        return tuple(n for n in self._nodes if n != self._root)

    @property
    def max_depth(self) -> int:
        return max(self._depth.values())

    def __contains__(self, node: str) -> bool:
        return node in self._depth

    def __len__(self) -> int:
        return len(self._nodes)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Taxonomy):
            return NotImplemented
        return self._root == other._root and self._children == other._children

    def __hash__(self) -> int:
        return hash((self._root, tuple(sorted(self._children.items()))))

    def __repr__(self) -> str:
        return f"Taxonomy(root={self._root!r}, nodes={len(self._nodes)})"

    def _require(self, node: str) -> None:
        if node not in self._depth:
            raise UnknownLabelError(node)

    def _require_labels(self, names: set[str], document: str | None = None, source: str | None = None) -> set[str]:
        """Return ``names``, or raise UnknownLabelError naming the first, in name order, that is unknown or the root."""
        unknown = names.difference(self._parent)
        if unknown:
            raise UnknownLabelError(min(unknown), document, source)
        return names

    def parent(self, node: str) -> str | None:
        """Parent name, or None for the root."""
        self._require(node)
        return self._parent.get(node)

    def children(self, node: str) -> tuple[str, ...]:
        """Children in input order; empty for leaves."""
        self._require(node)
        return self._children.get(node, ())

    def depth(self, node: str) -> int:
        """Edge distance from the root (root = 0)."""
        self._require(node)
        return self._depth[node]

    def ancestors(self, node: str) -> tuple[str, ...]:
        """Strict ancestors from parent upward, excluding the root."""
        self._require(node)
        chain = []
        current = self._parent.get(node)
        while current is not None and current != self._root:
            chain.append(current)
            current = self._parent.get(current)
        return tuple(chain)

    # -- label sets --------------------------------------------------------

    def is_consistent(self, labels: Iterable[str]) -> bool:
        """True iff every member's ancestors (root excluded) are also members.

        Raises UnknownLabelError for the first member in name order that is unknown or the root.
        """
        members = self._require_labels(set(labels))
        # Testing each member's parent is enough: induction covers the rest of its chain.
        members.add(self._root)
        return all(self._parent.get(label, self._root) in members for label in members)

    def ancestor_closure(self, labels: Iterable[str]) -> set[str]:
        """Smallest consistent superset: the union of all members' ancestor paths.

        Raises UnknownLabelError for the first member in name order that is unknown or the root.
        """
        closed = self._require_labels(set(labels))
        for label in tuple(closed):
            # A label already in the set gets its chain when the loop reaches it, if not before.
            parent = self._parent[label]
            while parent != self._root and parent not in closed:
                closed.add(parent)
                parent = self._parent[parent]
        return closed

    def render_edges(self) -> str:
        """TSV edge list; parsing it back reconstructs an equal taxonomy."""
        lines = []
        frontier = [self._root]
        while frontier:
            nxt = []
            for node in frontier:
                for child in self._children.get(node, ()):
                    lines.append(f"{node}\t{child}")
                    nxt.append(child)
            frontier = nxt
        return "\n".join(lines) + "\n"


def _parse_edge_lines(text: str) -> tuple[list[tuple[str, str]], list[Issue]]:
    edges: list[tuple[str, str]] = []
    issues: list[Issue] = []
    if text.startswith("\ufeff"):  # rejected like a BOM in a corpus file, and kept out of the first name
        issues.append(Issue("ENCODING", "text starts with a UTF-8 byte-order mark (U+FEFF)"))
        text = text[1:]
    # Only \n, \r\n and \r end a line, as in a file the CLI reads; str.splitlines() also splits at \v, U+2028...
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.strip(" \t")
        if not line or line[0] == "#":
            continue
        # Split before stripping, so that a blank name stays a field; tabs after the child are ignored.
        fields = raw.split("\t")
        while len(fields) > 2 and not fields[-1].strip(" \t"):
            fields.pop()
        parent, child = fields[0].strip(" \t"), fields[-1].strip(" \t")
        if len(fields) != 2:
            issues.append(Issue("EMPTY", f"line {lineno}: expected parent<TAB>child, got {len(fields)} fields"))
        elif not (parent and child):
            blank = "child" if parent else "parent"
            issues.append(Issue("EMPTY", f"line {lineno}: expected parent<TAB>child, got an empty {blank} name"))
        else:
            edges.append((parent, child))
    return edges, issues


def _index(edges: Sequence[tuple[str, str]], issues: list[Issue]) -> tuple[ValidationReport, tuple | None]:
    """Validate edges in one pass, after the line issues ``issues`` already found.

    Returns the full report and, only when it is empty, the arguments of
    ``Taxonomy``: root, children in input order, nodes in first-appearance
    order, parent and depth tables.
    """
    if not edges:
        # Bad lines alone do not also make the file empty.
        return ValidationReport(tuple(issues) or (Issue("EMPTY", "no edges found"),)), None

    nodes: dict[str, None] = {}  # first-appearance order
    children: dict[str, list[str]] = {}
    parent_of: dict[str, str] = {}  # each child's first parent
    parents_of: dict[str, set[str]] = {}  # every parent, of a child named in more than one edge
    duplicates: list[Issue] = []
    for parent, child in edges:
        nodes[parent] = nodes[child] = None
        if child in parent_of:
            parents = parents_of.setdefault(child, {parent_of[child]})
            if parent in parents:
                duplicates.append(Issue("DUPLICATE_EDGE", f"duplicate edge {parent!r} -> {child!r}"))
                continue
            parents.add(parent)
        else:
            parent_of[child] = parent
        children.setdefault(parent, []).append(child)

    # Rendered sequences separate tokens with whitespace (str.split), so a name with whitespace
    # could not be read back from a sequence. One look at all names finds whether any may break a rule.
    joined = "".join(nodes)
    if "#" in joined or joined.split() != [joined] or not RESERVED_TOKENS.isdisjoint(nodes):
        for name in nodes:
            if name in RESERVED_TOKENS:
                issues.append(Issue("RESERVED_NAME", f"{name!r} is a reserved token name"))
            if any(map(str.isspace, name)):
                issues.append(Issue("WHITESPACE_NAME", f"{name!r} contains whitespace"))
            if name.startswith("#"):  # its line would be read back as a comment
                issues.append(Issue("COMMENT_NAME", f"{name!r} starts with '#', which marks a comment line"))
    issues += duplicates

    # The Kahn peel below peels a child of several parents once all of them are peeled.
    waiting = {child: len(parents) - 1 for child, parents in parents_of.items() if len(parents) > 1}
    for child in sorted(waiting):
        issues.append(Issue("MULTIPLE_PARENTS", f"{child!r} has parents {sorted(parents_of[child])}"))

    roots = [n for n in nodes if n not in parent_of]
    if not roots:
        issues.append(Issue("NO_ROOT", "no node is parent-only; every node appears as a child"))
    elif len(roots) > 1:
        issues.append(Issue("MULTIPLE_ROOTS", f"multiple root candidates: {roots}"))

    # Kahn peel from the roots, assigning depths as it goes; a node never peeled keeps an in-edge
    # from a cycle, so it lies on or below one.
    depth = dict.fromkeys(roots, 0)
    queue = list(roots)
    while queue:
        node = queue.pop()
        for child in children.get(node, ()):
            if waiting and waiting.get(child):
                waiting[child] -= 1
            else:
                depth[child] = depth[node] + 1
                queue.append(child)
    if len(depth) < len(nodes):
        issues.append(Issue("CYCLE", f"cycle involving {sorted(n for n in nodes if n not in depth)}"))

    if issues:
        return ValidationReport(tuple(issues)), None
    tree = {parent: tuple(kids) for parent, kids in children.items()}
    return ValidationReport(), (roots[0], tree, tuple(nodes), parent_of, depth)


def _build(edges: Sequence[tuple[str, str]], issues: list[Issue]) -> Taxonomy:
    """The tree of ``edges``; raises InvalidTaxonomyError with the full report if anything is wrong."""
    report, parts = _index(edges, issues)
    if parts is None:
        raise InvalidTaxonomyError(report)
    return Taxonomy(*parts)


def validate_taxonomy(text: str) -> ValidationReport:
    """Check edge-list text and report every violation found; never raises."""
    return _index(*_parse_edge_lines(text))[0]


def parse_taxonomy(text: str) -> Taxonomy:
    """Parse edge-list text into a Taxonomy.

    Raises InvalidTaxonomyError carrying the full ValidationReport if any
    structural rule is violated; a partial taxonomy is never returned.
    """
    return _build(*_parse_edge_lines(text))


class DatasetStats(NamedTuple):
    """Corpus-level statistics: label inventory size, tree depth, mean labels per document."""

    label_count: int
    depth: int
    avg_labels: float
    split_sizes: dict[str, int]

    def to_dict(self) -> dict:
        return {**self._asdict(), "split_sizes": dict(self.split_sizes)}


def dataset_stats(tax: Taxonomy, corpora: Mapping[str, Iterable[DocumentRecord]]) -> DatasetStats:
    """Summarize a taxonomy plus per-split document collections, each read once, in split order.

    A split may be any iterable, such as ``corpus.iter_documents``, so no split is held in
    memory. label_count excludes the root; avg_labels is the mean label-set
    cardinality over all splits combined (0 for an empty corpus). Raises
    CorpusFormatError for a document without labels (``[]`` counts as 0)
    and UnknownLabelError for the first label in name order that is unknown
    or the root, each naming the document `` in split '<name>'``.
    """
    total_labels = 0
    split_sizes: dict[str, int] = {}
    for split, docs in corpora.items():
        split_sizes[split] = 0
        source = f"split {split!r}"
        for doc in docs:
            labels = required_labels(doc, source)
            tax._require_labels(labels, doc.id, source)
            total_labels += len(labels)
            split_sizes[split] += 1
    total_docs = sum(split_sizes.values())
    avg = total_labels / total_docs if total_docs else 0.0
    return DatasetStats(
        label_count=len(tax) - 1,
        depth=tax.max_depth,
        avg_labels=avg,
        split_sizes=split_sizes,
    )
