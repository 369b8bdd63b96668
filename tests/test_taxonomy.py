from __future__ import annotations

import random

import pytest

from conftest import MEDIA_EDGES, STRADDLING_NAMES, random_taxonomy
from treedecode import (
    DocumentRecord,
    InconsistentLabelSetError,
    InvalidTaxonomyError,
    Taxonomy,
    UnknownLabelError,
    dataset_stats,
    linearize,
    parse_taxonomy,
    validate_taxonomy,
)
from treedecode.tokens import EOS, POP, RESERVED_TOKENS, token_sort_key


def test_parse_media_taxonomy(media_tax):
    assert media_tax.root == "Root"
    assert len(media_tax) == 7
    assert media_tax.max_depth == 3
    assert media_tax.labels == (
        "Entertainment", "Business", "Movie", "Documentary", "Action", "Company",
    )


def test_parse_single_edge():
    tax = parse_taxonomy("Root\tA\n")
    assert len(tax) == 2
    assert tax.max_depth == 1
    assert tax.children("Root") == ("A",)


def test_cycle_is_reported():
    report = validate_taxonomy("A\tB\nB\tA\n")
    assert not report.ok
    assert "CYCLE" in report.codes()
    with pytest.raises(InvalidTaxonomyError):
        parse_taxonomy("A\tB\nB\tA\n")


def test_comments_and_blank_lines_ignored():
    tax = parse_taxonomy("# a comment\n\nRoot\tA\n\n# another\nRoot\tB\n")
    assert tax.children("Root") == ("A", "B")


def test_tabs_and_blanks_after_the_child_are_ignored():
    tax = parse_taxonomy("Root\tA\t\nA\tB\t \t\n")
    assert tax.children("Root") == ("A",) and tax.children("A") == ("B",)


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_line_ends_parse_like_lf(newline):
    assert parse_taxonomy(MEDIA_EDGES.replace("\n", newline)) == parse_taxonomy(MEDIA_EDGES)


@pytest.mark.parametrize(
    "text,code",
    [
        ("Root\tA\nRoot\tA\n", "DUPLICATE_EDGE"),
        ("Root\tA\nOther\tB\n", "MULTIPLE_ROOTS"),
        ("A\tB\nB\tC\nC\tA\n", "NO_ROOT"),
        ("Root\tA\nRoot\tB\nA\tC\nB\tC\n", "MULTIPLE_PARENTS"),
        ("Root\tPOP\n", "RESERVED_NAME"),
        ("Root\t<eos>\n", "RESERVED_NAME"),
        ("Root\tmy label\n", "WHITESPACE_NAME"),
        ("Root\tA\nA\tB\u00a0C\n", "WHITESPACE_NAME"),
        ("Root A no tab here\n", "EMPTY"),
        ("Root\tA\tB\n", "EMPTY"),
        ("Root\t\n", "EMPTY"),
        ("", "EMPTY"),
    ],
)
def test_validation_issue_codes(text, code):
    report = validate_taxonomy(text)
    assert not report.ok
    assert code in report.codes()


def _issues(*pairs: tuple[str, str]) -> dict:
    return {"ok": False, "issues": [{"code": code, "message": message} for code, message in pairs]}


@pytest.mark.parametrize(
    "text,expected",
    [
        (  # every structural rule but NO_ROOT at once; D hangs below the B-C cycle
            "Root\tA\nRoot\tA\nRoot\tPOP\nA\tmy label\nB\tC\nC\tB\nC\tD\nX\tA\n",
            _issues(
                ("RESERVED_NAME", "'POP' is a reserved token name"),
                ("WHITESPACE_NAME", "'my label' contains whitespace"),
                ("DUPLICATE_EDGE", "duplicate edge 'Root' -> 'A'"),
                ("MULTIPLE_PARENTS", "'A' has parents ['Root', 'X']"),
                ("MULTIPLE_ROOTS", "multiple root candidates: ['Root', 'X']"),
                ("CYCLE", "cycle involving ['B', 'C', 'D']"),
            ),
        ),
        (  # bad lines come first, then the structure of the good ones
            "# comment\nRoot\tA\nRoot A no tab\nA\tB\tC\nRoot\t\nB\tA\nRoot\tA\n",
            _issues(
                ("EMPTY", "line 3: expected parent<TAB>child, got 1 fields"),
                ("EMPTY", "line 4: expected parent<TAB>child, got 3 fields"),
                ("EMPTY", "line 5: expected parent<TAB>child, got an empty child name"),
                ("DUPLICATE_EDGE", "duplicate edge 'Root' -> 'A'"),
                ("MULTIPLE_PARENTS", "'A' has parents ['B', 'Root']"),
                ("MULTIPLE_ROOTS", "multiple root candidates: ['Root', 'B']"),
            ),
        ),
        ("", _issues(("EMPTY", "no edges found"))),
        (  # the mark would otherwise become part of the first name
            "\ufeffRoot\tA\nA\tB\n",
            _issues(("ENCODING", "text starts with a UTF-8 byte-order mark (U+FEFF)")),
        ),
        (  # and make the second Root line a second root
            "\ufeffRoot\tA\nRoot\tB\n",
            _issues(("ENCODING", "text starts with a UTF-8 byte-order mark (U+FEFF)")),
        ),
        (  # the line is split before its fields are stripped, so a blank name is named as one
            "Root\tA\n\tB\nC\t \nD\t\t\n\tE\tF\n",
            _issues(
                ("EMPTY", "line 2: expected parent<TAB>child, got an empty parent name"),
                ("EMPTY", "line 3: expected parent<TAB>child, got an empty child name"),
                ("EMPTY", "line 4: expected parent<TAB>child, got an empty child name"),
                ("EMPTY", "line 5: expected parent<TAB>child, got 3 fields"),
            ),
        ),
        # Only \n, \r\n and \r end a line, as under universal newlines; str.splitlines() would
        # also break at these, name the wrong line and lose the whitespace name.
        ("Root\tA\nA\tB\x0bC\n", _issues(("WHITESPACE_NAME", "'B\\x0bC' contains whitespace"))),
        ("Root\tA\nA\tB\x85C\n", _issues(("WHITESPACE_NAME", "'B\\x85C' contains whitespace"))),
        ("Root\tA\nA\tB\u2028C\n", _issues(("WHITESPACE_NAME", "'B\\u2028C' contains whitespace"))),
        # Only spaces and tabs are stripped from a line and its names, as in a corpus file; other
        # whitespace at either end of a name stays in it, and a line of it is not blank.
        ("Root\tA\x0c\n", _issues(("WHITESPACE_NAME", "'A\\x0c' contains whitespace"))),
        ("Root\tA\xa0\n", _issues(("WHITESPACE_NAME", "'A\\xa0' contains whitespace"))),
        ("\x85Root\tA\n", _issues(("WHITESPACE_NAME", "'\\x85Root' contains whitespace"))),
        ("Root\tA\n\xa0\n", _issues(("EMPTY", "line 2: expected parent<TAB>child, got 1 fields"))),
        (  # \r\n and a lone \r still end lines, and are counted as one line each
            "Root\tA\r\nA B\rA\tC\r\nC D\n",
            _issues(
                ("EMPTY", "line 2: expected parent<TAB>child, got 1 fields"),
                ("EMPTY", "line 4: expected parent<TAB>child, got 1 fields"),
            ),
        ),
        (  # the second line is a comment, so B was silently lost; '#' inside a name stays legal
            "Root\t#A\n#A\tB\nRoot\ta#b\n",
            _issues(("COMMENT_NAME", "'#A' starts with '#', which marks a comment line")),
        ),
    ],
    ids=[
        "structural", "lines-and-structural", "empty", "bom", "bom-repeated-root", "blank-fields",
        "vertical-tab", "next-line", "line-separator", "trailing-form-feed", "trailing-no-break-space",
        "leading-next-line", "no-break-space-line", "crlf-and-cr", "comment-name",
    ],
)
def test_full_validation_report(text, expected):
    assert validate_taxonomy(text).to_dict() == expected
    with pytest.raises(InvalidTaxonomyError) as caught:
        parse_taxonomy(text)
    assert caught.value.report.to_dict() == expected


def test_never_a_partial_taxonomy():
    err = None
    try:
        parse_taxonomy("Root\tA\nRoot\tA\nRoot\tPOP\n")
    except InvalidTaxonomyError as caught:
        err = caught
    assert err is not None
    assert {"DUPLICATE_EDGE", "RESERVED_NAME"} <= err.report.codes()


def test_whitespace_names_are_rejected_by_every_constructor():
    # A name with whitespace would not survive render_sequence/parse_sequence.
    for build in (
        lambda: parse_taxonomy("Root\tmy label\n"),
        lambda: Taxonomy.from_edges([("Root", "A"), ("A", "line\nbreak")]),
    ):
        with pytest.raises(InvalidTaxonomyError) as caught:
            build()
        assert caught.value.report.codes() == {"WHITESPACE_NAME"}


def test_a_name_that_starts_with_a_comment_mark_is_rejected():
    # Rendered, the edge '#A' -> 'B' would be read back as a comment line.
    with pytest.raises(InvalidTaxonomyError) as caught:
        Taxonomy.from_edges([("Root", "#A"), ("#A", "B")])
    assert caught.value.report.codes() == {"COMMENT_NAME"}
    tax = Taxonomy.from_edges([("Root", "a#b"), ("a#b", "B#")])
    assert parse_taxonomy(tax.render_edges()) == tax


def test_children(media_tax):
    assert media_tax.children("Movie") == ("Documentary", "Action")
    assert media_tax.children("Documentary") == ()
    assert media_tax.children("Root") == ("Entertainment", "Business")
    with pytest.raises(UnknownLabelError):
        media_tax.children("Music")


def test_ancestors(media_tax):
    assert media_tax.ancestors("Documentary") == ("Movie", "Entertainment")
    assert media_tax.ancestors("Entertainment") == ()
    assert media_tax.ancestors("Company") == ("Business",)
    with pytest.raises(UnknownLabelError):
        media_tax.ancestors("Music")


def test_is_consistent(media_tax):
    assert media_tax.is_consistent(
        {"Entertainment", "Movie", "Documentary", "Business", "Company"}
    )
    assert not media_tax.is_consistent({"Entertainment", "Documentary", "Company"})
    assert media_tax.is_consistent(set())
    with pytest.raises(UnknownLabelError):
        media_tax.is_consistent({"Music"})
    with pytest.raises(UnknownLabelError, match=r"^unknown label 'Root'$"):
        media_tax.is_consistent({"Root", "Entertainment"})


def test_ancestor_closure(media_tax):
    assert media_tax.ancestor_closure({"Documentary", "Company"}) == {
        "Entertainment", "Movie", "Documentary", "Business", "Company",
    }
    assert media_tax.ancestor_closure({"Entertainment"}) == {"Entertainment"}
    assert media_tax.ancestor_closure(set()) == set()
    # The root is no label: it is named before an unknown label that sorts after it.
    with pytest.raises(UnknownLabelError, match=r"^unknown label 'Root'$"):
        media_tax.ancestor_closure({"Root", "Zzz"})


def test_closure_properties():
    rng = random.Random(7)
    for _ in range(50):
        tax = random_taxonomy(rng, rng.randint(3, 40))
        seeds = set(rng.sample(tax.labels, k=rng.randint(1, min(5, len(tax.labels)))))
        closed = tax.ancestor_closure(seeds)
        assert seeds <= closed
        assert tax.ancestor_closure(closed) == closed
        assert tax.is_consistent(closed)
        # Random label subsets are mostly inconsistent; both queries must agree
        # with their definitions over whole ancestor chains.
        for _ in range(5):
            labels = set(rng.sample(tax.labels, k=rng.randint(0, len(tax.labels))))
            chains = [set(tax.ancestors(label)) for label in labels]
            assert tax.ancestor_closure(labels) == labels.union(*chains)
            assert tax.is_consistent(labels) == all(chain <= labels for chain in chains)
            # linearize, the empty set included, rejects exactly the sets that is_consistent rejects.
            try:
                linearize(tax, labels)
            except InconsistentLabelSetError:
                assert not tax.is_consistent(labels)
            else:
                assert tax.is_consistent(labels)
            # No label set holds the root: every query names it, as linearize does.
            for query in (tax.is_consistent, tax.ancestor_closure, lambda names: linearize(tax, names)):
                with pytest.raises(UnknownLabelError) as caught:
                    query(labels | {tax.root})
                assert caught.value.label == tax.root


def test_depth_matches_parent_chain_walk():
    rng = random.Random(11)
    for _ in range(20):
        tax = random_taxonomy(rng, rng.randint(2, 60))
        for node in tax.nodes:
            hops = 0
            current = node
            while tax.parent(current) is not None:
                current = tax.parent(current)
                hops += 1
            assert tax.depth(node) == hops


def test_children_parent_duality():
    rng = random.Random(13)
    for _ in range(20):
        tax = random_taxonomy(rng, rng.randint(2, 60))
        for node in tax.nodes:
            for child in tax.children(node):
                assert tax.parent(child) == node
            if tax.parent(node) is not None:
                assert node in tax.children(tax.parent(node))


def test_edge_list_round_trip():
    rng = random.Random(17)
    for _ in range(30):
        tax = random_taxonomy(rng, rng.randint(2, 80))
        again = parse_taxonomy(tax.render_edges())
        assert again == tax
        for node in tax.nodes:
            assert again.children(node) == tax.children(node)
    media = parse_taxonomy(MEDIA_EDGES)
    assert parse_taxonomy(media.render_edges()) == media


def _doc(doc_id: str, labels: set[str]) -> DocumentRecord:
    return DocumentRecord(id=doc_id, labels=frozenset(labels))


def test_stats_wos_shaped_fixture():
    # 7 depth-1 areas, 134 depth-2 topics -> 141 labels, depth 2; every
    # document carries exactly one area and one topic, so the mean is 2.0.
    lines = []
    areas = [f"area{i}" for i in range(7)]
    topics = [f"topic{i:03d}" for i in range(134)]
    for area in areas:
        lines.append(f"ROOT\t{area}")
    for i, topic in enumerate(topics):
        lines.append(f"{areas[i % 7]}\t{topic}")
    tax = parse_taxonomy("\n".join(lines))
    docs = [
        _doc(f"d{i}", {areas[i % 7], topics[i % 134]})
        for i in range(60)
    ]
    stats = dataset_stats(tax, {"train": docs[:40], "test": docs[40:]})
    assert stats.label_count == 141
    assert stats.depth == 2
    assert stats.avg_labels == 2.0
    assert stats.split_sizes == {"train": 40, "test": 20}


def test_stats_media_single_document(media_tax):
    doc = _doc("d0", {"Entertainment", "Movie", "Documentary", "Business", "Company"})
    stats = dataset_stats(media_tax, {"train": [doc]})
    assert stats.label_count == 6
    assert stats.depth == 3
    assert stats.avg_labels == 5.0


def test_stats_empty_corpus(media_tax):
    stats = dataset_stats(media_tax, {"train": [], "test": []})
    assert stats.avg_labels == 0
    assert stats.split_sizes == {"train": 0, "test": 0}
    stats.to_dict()["split_sizes"]["dev"] = 0  # to_dict copies the sizes, so the record keeps its own
    assert stats.split_sizes == {"train": 0, "test": 0}


def test_stats_unknown_label_names_document(media_tax):
    with pytest.raises(UnknownLabelError, match=r"^document 'd7': unknown label 'Music' in split 'train'$"):
        dataset_stats(media_tax, {"train": [_doc("d7", {"Music"})]})


def test_taxonomy_is_immutable_surface(media_tax):
    with pytest.raises(AttributeError):
        media_tax.root = "Other"


def test_from_edges_matches_parse(media_tax):
    edges = [tuple(line.split("\t")) for line in MEDIA_EDGES.strip().splitlines()]
    assert Taxonomy.from_edges(edges) == media_tax


def _reference_report(text: str) -> dict:
    """The validator written plainly: a loop per line and per name, a set of parents per child
    and a Kahn peel over in-degrees, each issue in the order the report lists them."""
    issues = []
    if text.startswith("\ufeff"):
        issues.append(("ENCODING", "text starts with a UTF-8 byte-order mark (U+FEFF)"))
        text = text[1:]
    edges = []
    for lineno, raw in enumerate(text.replace("\r\n", "\n").replace("\r", "\n").split("\n"), start=1):
        line = raw.strip(" \t")
        if not line or line.startswith("#"):
            continue
        fields = [field.strip(" \t") for field in raw.split("\t")]
        while len(fields) > 2 and not fields[-1]:
            fields.pop()
        if len(fields) != 2:
            issues.append(("EMPTY", f"line {lineno}: expected parent<TAB>child, got {len(fields)} fields"))
        elif not (fields[0] and fields[1]):
            blank = "child" if fields[0] else "parent"
            issues.append(("EMPTY", f"line {lineno}: expected parent<TAB>child, got an empty {blank} name"))
        else:
            edges.append((fields[0], fields[1]))
    if not edges:
        return _issues(*issues) if issues else _issues(("EMPTY", "no edges found"))

    nodes, children, parents_of, duplicates = {}, {}, {}, []
    for parent, child in edges:
        nodes[parent] = nodes[child] = None
        parents = parents_of.setdefault(child, set())
        if parent in parents:
            duplicates.append(("DUPLICATE_EDGE", f"duplicate edge {parent!r} -> {child!r}"))
        else:
            parents.add(parent)
            children.setdefault(parent, []).append(child)
    for name in nodes:
        if name in RESERVED_TOKENS:
            issues.append(("RESERVED_NAME", f"{name!r} is a reserved token name"))
        if any(character.isspace() for character in name):
            issues.append(("WHITESPACE_NAME", f"{name!r} contains whitespace"))
        if name.startswith("#"):
            issues.append(("COMMENT_NAME", f"{name!r} starts with '#', which marks a comment line"))
    issues += duplicates
    for child in sorted(parents_of):
        if len(parents_of[child]) > 1:
            issues.append(("MULTIPLE_PARENTS", f"{child!r} has parents {sorted(parents_of[child])}"))
    roots = [name for name in nodes if name not in parents_of]
    if not roots:
        issues.append(("NO_ROOT", "no node is parent-only; every node appears as a child"))
    elif len(roots) > 1:
        issues.append(("MULTIPLE_ROOTS", f"multiple root candidates: {roots}"))
    indegree = {child: len(parents) for child, parents in parents_of.items()}
    peeled, queue = set(roots), list(roots)
    while queue:
        for child in children.get(queue.pop(), ()):
            indegree[child] -= 1
            if indegree[child] == 0:
                peeled.add(child)
                queue.append(child)
    if len(peeled) < len(nodes):
        issues.append(("CYCLE", f"cycle involving {sorted(set(nodes) - peeled)}"))
    return _issues(*issues) if issues else {"ok": True, "issues": []}


_ODD_NAMES = ("POP", "<eos>", "<bos>", "a\xa0b", "a\x0bb", "a b", "\xa0", "#A", "#", "a#b")
_BAD_LINES = ("", "  ", "\t\t", "# comment", "\t# comment", "no tab", "\tB", "C\t", "C\t \t", "A\tB\tC", "A\t\tB")


def _faulty_edge_text(rng: random.Random) -> str:
    """A tree's edge list with up to four faults mixed in, every line ended by \\n, \\r\\n or \\r."""
    names = rng.sample("RABCDEFGH", rng.randint(2, 9))
    edges = [(rng.choice(names[:i]), names[i]) for i in range(1, len(names))]
    for _ in range(rng.randint(0, 4)):
        fault = rng.randrange(6)
        if fault == 0:  # a duplicate edge
            edges.insert(rng.randrange(len(edges) + 1), rng.choice(edges))
        elif fault == 1:  # a second parent, which may close a cycle or a self-loop, or a parent of the root
            edges.insert(rng.randrange(len(edges) + 1), (rng.choice(names), rng.choice(names)))
        elif fault == 2:  # a cycle with a node hanging below it, reached from the tree or not
            x, y, z = rng.sample("XYZW", 3)
            edges += [(x, y), (y, x), (y, z)] + [(rng.choice(names), x)] * rng.randrange(2)
        elif fault == 3:  # a second tree
            edges.append(("Q", rng.choice(["P", *names])))
        else:  # an odd name, as a child or as a parent
            odd = rng.choice(_ODD_NAMES)
            edges.insert(rng.randrange(len(edges) + 1), rng.choice([(rng.choice(names), odd), (odd, "K")]))
    lines = [rng.choice(["{}\t{}", " {} \t{}", "{}\t{}\t", "{}\t {}\t \t"]).format(*edge) for edge in edges]
    for _ in range(rng.choice([0, 0, 1, 2])):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(_BAD_LINES))
    text = "".join(line + rng.choice(["\n", "\n", "\r\n", "\r"]) for line in lines)
    return ("\ufeff" + text) if rng.random() < 0.03 else text


def test_validation_report_matches_a_plain_reference_on_mixed_faults():
    rng = random.Random(30)
    seen = set()
    for _ in range(3000):
        text = _faulty_edge_text(rng)
        expected = _reference_report(text)
        assert validate_taxonomy(text).to_dict() == expected, text
        seen.update(issue["code"] for issue in expected["issues"])
        seen.add("OK" if expected["ok"] else "FAULT")
    assert seen == {
        "OK", "FAULT", "ENCODING", "EMPTY", "RESERVED_NAME", "WHITESPACE_NAME", "COMMENT_NAME",
        "DUPLICATE_EDGE", "MULTIPLE_PARENTS", "NO_ROOT", "MULTIPLE_ROOTS", "CYCLE",
    }


def test_automaton_tables_match_their_definition():
    # The rank order is one sort by token_sort_key; every table is read off it.
    names = (*STRADDLING_NAMES, "POPS", "~", "A", "b", "m")
    rng = random.Random(31)
    for _ in range(300):
        tree = rng.sample(names, rng.randint(2, len(names)))
        edges = [(rng.choice(tree[:i]), tree[i]) for i in range(1, len(tree))]
        rng.shuffle(edges)
        tax = Taxonomy.from_edges(edges)
        order = sorted((*tax.nodes, EOS, POP), key=token_sort_key)
        assert tax._rank == {token: rank for rank, token in enumerate(order)}
        assert tax._alphabet == tuple(token for token in order if token != tax.root)
        assert tax._start.keys() == set(tax.nodes)
        for node in tax.nodes:
            end = EOS if node == tax.root else POP
            members = {*tax.children(node), end}
            assert tax._start[node] == tuple(token for token in order if token in members)
            assert tax._start[node][-1] == end
        parsed = parse_taxonomy("".join(f"{parent}\t{child}\n" for parent, child in edges))
        for table in ("_root", "_children", "_nodes", "_parent", "_depth", "_rank", "_alphabet", "_start"):
            assert getattr(parsed, table) == getattr(tax, table), table
