"""Graph store: loading, taxonomy distances, hop neighborhoods."""

import os
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kginfuse
from kginfuse.config import parse_config
from kginfuse.embedding import DimensionModel, embed_concepts
from kginfuse.errors import (
    GraphFormatError,
    TaxonomyCycleError,
    UnknownConceptError,
    ValidationError,
)
from kginfuse.kg import (
    KnowledgeGraph,
    Triple,
    _find_cycle,
    graph_stats,
    lcs_distance,
    load_graph,
    n_hop_neighborhood,
)
from kginfuse.seeding import corpus_stats, extract_seeded_subkg
from kginfuse.storage import read_text
from kginfuse.synth import generate_benchmark
from kginfuse.text import normalize_label, tokenize, tokenize_all


def write_kg(tmp_path, text, name="kg.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def chain_graph(labels):
    """Undirected-chain graph l0 - l1 - ... over a non-taxonomy predicate."""
    rows = [(labels[i], "linked", labels[i + 1]) for i in range(len(labels) - 1)]
    return KnowledgeGraph.from_labeled_triples(rows)


# Independent oracle: exhaustive upward path enumeration, no visited set.
def enumerate_ancestor_hops(kg, start):
    hops = {}

    def walk(node, depth):
        if node not in hops or depth < hops[node]:
            hops[node] = depth
        for t in sorted(kg.triples):
            if t.predicate == kg.taxonomy_predicate and t.subject == node:
                walk(t.object, depth + 1)

    walk(start, 0)
    return hops


def brute_lcs(kg, a, b):
    ha = enumerate_ancestor_hops(kg, a)
    hb = enumerate_ancestor_hops(kg, b)
    common = ha.keys() & hb.keys()
    return min((ha[c] + hb[c] for c in common), default=None)


# Reference parser: the graph as it was built before each raw label was
# normalized once and acyclicity was checked by Kahn's pass. Returns what
# the graph derives: (concepts, triples, neighbors, parents, token_index).
def reference_from_labeled_triples(rows, taxonomy_predicate="isa"):
    concepts = {}

    def intern(label):
        cid = normalize_label(label)
        if not cid:
            raise ValidationError("empty concept label")
        if cid not in concepts:
            concepts[cid] = label.strip()
        return cid

    triples = {}  # in row order, which names the first faulty triple
    for subject, predicate, obj in rows:
        predicate = normalize_label(predicate)
        if not predicate:
            raise ValidationError("empty predicate")
        triples[Triple(intern(subject), predicate, intern(obj))] = None
    return reference_graph(triples, concepts, taxonomy_predicate)


def reference_graph(triples, concepts, taxonomy_predicate="isa"):
    """Faults are named in the order triples gives them: the first
    unknown concept, else the first taxonomy self-loop."""
    ordered, concepts = list(triples), dict(concepts)
    for t in ordered:
        if t.subject not in concepts or t.object not in concepts:
            raise ValidationError(f"triple references unknown concept: {t}")
    neighbors = {c: set() for c in concepts}
    parents = {c: set() for c in concepts}
    for t in ordered:
        neighbors[t.subject].add(t.object)
        neighbors[t.object].add(t.subject)
        if t.predicate == taxonomy_predicate:
            if t.subject == t.object:
                raise TaxonomyCycleError([concepts[t.subject]])
            parents[t.subject].add(t.object)
    cycle = _find_cycle(parents)
    if cycle is not None:
        raise TaxonomyCycleError([concepts[c] for c in cycle])
    index = {}
    for cid, label in concepts.items():
        tokens = tuple(tokenize(label))
        if tokens:
            index.setdefault(tokens, []).append(cid)
    return concepts, frozenset(ordered), neighbors, parents, index


def derived(kg):
    return kg.concepts, kg.triples, kg._neighbors, kg._parents, kg.token_index


def outcome(build):
    """What build() derives, or the type, message and cycle members it raises."""
    try:
        concepts, *rest = build()
    except ValidationError as exc:
        return type(exc), str(exc), getattr(exc, "members", None)
    return list(concepts.items()), *rest


# Labels that differ only in case and whitespace share an id; "red-fox"
# and "red fox" differ in id but not in tokens.
BASE_LABELS = ["cat", "big dog", "red-fox", "red fox", "ΟΔΟΣ ΣΟΦΟΣ", "naïve café", "x1"]
PREDICATES = ["isa", "ISA", " isa ", "related", "Part Of", "part \t of"]


@st.composite
def raw_label(draw, index):
    base = BASE_LABELS[index]
    cased = "".join(ch.upper() if draw(st.booleans()) else ch for ch in base)
    gap = draw(st.sampled_from([" ", "  ", "\t", " \u00a0"]))
    pad = draw(st.sampled_from(["", " ", "  "]))
    return pad + gap.join(cased.split(" ")) + pad


@st.composite
def labeled_rows(draw):
    """Rows with duplicates, several predicates and multi-parent
    taxonomies; an acyclic draw points every taxonomy edge at an earlier
    base label, any other draw may hold self-loops and cycles. One draw
    in five holds a row with an empty label or predicate."""
    acyclic = draw(st.booleans())
    rows = []
    for _ in range(draw(st.integers(0, 14))):
        a, b = (draw(st.integers(0, len(BASE_LABELS) - 1)) for _ in range(2))
        predicate = draw(st.sampled_from(PREDICATES))
        if acyclic and normalize_label(predicate) == "isa":
            if a == b:
                continue
            a, b = max(a, b), min(a, b)
        rows.append((draw(raw_label(a)), predicate, draw(raw_label(b))))
    empty = draw(st.sampled_from([None] * 8 + [(" ", "isa", "cat"), ("cat", " ", "x1")]))
    if empty is not None:
        rows.insert(draw(st.integers(0, len(rows))), empty)
    return rows


class TestParserOracle:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(labeled_rows())
    @example([("cat", "isa", "x1"), (" ", " ", "x1"), ("", "isa", "cat")])  # predicate first
    @example([("cat", "isa", " "), ("cat", "", "x1")])  # the first faulty row
    def test_graph_equals_the_reference_parser(self, rows):
        expected = outcome(lambda: reference_from_labeled_triples(rows))
        assert outcome(lambda: derived(KnowledgeGraph.from_labeled_triples(rows))) == expected

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(labeled_rows(), st.lists(st.tuples(st.sampled_from(["cat", "ghost"]),
                                              st.sampled_from(["isa", "linked"]),
                                              st.sampled_from(["cat", "x1", "ghost"])),
                                    max_size=3))
    def test_constructor_equals_the_reference_on_unknown_concepts(self, rows, extra):
        # An unknown concept is reported even where a taxonomy cycle is also present.
        try:
            concepts, triples, *_ = reference_from_labeled_triples(rows)
        except ValidationError:
            return
        triples = set(triples) | {Triple(*t) for t in extra}
        expected = outcome(lambda: reference_graph(triples, concepts))
        assert outcome(lambda: derived(KnowledgeGraph(triples, concepts))) == expected

    def test_cycles_are_named_like_the_reference(self):
        rows = [("a", "isa", "b"), ("b", "isa", "c"), ("c", "isa", "a"), ("d", "isa", "a"),
                ("e", "isa", "e"), ("e", "linked", "f")]
        for drop in (None, 4):
            kept = [row for i, row in enumerate(rows) if i != drop]
            expected = outcome(lambda: reference_from_labeled_triples(kept))
            assert expected[0] is TaxonomyCycleError
            assert outcome(lambda: derived(KnowledgeGraph.from_labeled_triples(kept))) == expected


class TestTokenIndex:
    @settings(derandomize=True, database=None, max_examples=300, deadline=None)
    @given(st.lists(st.one_of(st.text(), st.sampled_from(["ΟΔΟΣ", "ΣΑΣ'Σ", "aΣ\nΣb", "\n"])),
                    max_size=8))
    def test_one_pass_tokens_equal_per_label_tokens(self, labels):
        assert tokenize_all(labels) == [tokenize(label) for label in labels]
        concepts = {f"c{i}": label for i, label in enumerate(labels)}
        index = {}
        for cid, label in concepts.items():
            tokens = tuple(tokenize(label))
            if tokens:
                index.setdefault(tokens, []).append(cid)
        assert KnowledgeGraph([], concepts).token_index == index


class TestLabelTokens:
    LABELS = ["Red-Fox!", "ΟΔΟΣ", "ΣΑΣ'Σ", "naïve Café", "日本 語", "...", "Straße", "ΣΑΣ"]

    def test_a_loaded_graph_tokenizes_no_label_alone(self, tmp_path, monkeypatch):
        path = write_kg(tmp_path, "".join(f"{label}\trel\t{self.LABELS[0]}\n"
                                          for label in self.LABELS[1:]))
        stats = corpus_stats([("pos", "red fox οδος"), ("neg", "日本 語 straße")])
        model = DimensionModel("m", {"fox": 0, "red": 1, "日本": 2},
                               np.array([[1.0, 2.0], [0.5, -1.0], [3.0, 0.0]]), 2)
        calls = []

        def counted(text):
            calls.append(text)
            return tokenize(text)

        # seeding and embedding tokenize only through kginfuse.text.
        monkeypatch.setattr("kginfuse.text.tokenize", counted)
        kg = load_graph(path)
        label_tokens = kg.label_tokens
        index = kg.token_index
        seeded = extract_seeded_subkg(kg, stats, "pos", hops=1, top_m=1, models=[model])
        embed_concepts(kg, sorted(kg.concepts), [model])
        assert calls == []
        assert label_tokens == {cid: tuple(tokenize(label)) for cid, label in kg.concepts.items()}
        assert index[("red", "fox")] == ["red-fox!"] and () not in index
        assert {c for c, d in seeded.subkg.frontier_depth.items() if d == 0} == {"red-fox!"}

    def test_a_label_holding_a_newline_takes_the_per_label_fallback(self):
        labels = self.LABELS + ["north\nwind"]
        concepts = {f"c{i}": label for i, label in enumerate(labels)}
        kg = KnowledgeGraph([], concepts)
        assert kg.label_tokens == {cid: tuple(tokenize(label)) for cid, label in concepts.items()}
        assert kg.label_tokens["c8"] == ("north", "wind")


def reference_rows(path):
    """Reference: the file parsed row by row, as (subject, predicate, object)
    rows of stripped fields; raises GraphFormatError at the first bad line."""
    rows = []
    for line_number, line in enumerate(read_text(path).split("\n"), start=1):
        head = line.lstrip()
        if not head or head.startswith("#"):
            continue
        fields = line.split("\t")
        if len(fields) != 3:
            raise GraphFormatError(
                path, line_number, f"expected 3 tab-separated fields, got {len(fields)}"
            )
        subject, predicate, obj = (field.strip() for field in fields)
        if not subject or not predicate or not obj:
            raise GraphFormatError(path, line_number, "empty field")
        rows.append((subject, predicate, obj))
    return rows


FILLER_LINES = ["", "  ", "\t", " \t ", "# comment", "  # indented\tcomment\tline", "#a\tb"]
FAULTY_LINES = ["broken line", "a\tisa", "a\tisa\tb\tc", "\tisa\tcat", "cat\t \tx1",
                "cat\tisa\t\u00a0", "\t\t\tx"]


@st.composite
def triple_files(draw):
    """(bytes, faulty) of a kg.tsv: labeled_rows written with padded
    fields (no tab inside a label), among comment, blank and
    whitespace-only lines, with LF or CRLF ends and maybe a BOM; a faulty
    draw holds one or more bad lines."""
    rows = [row for row in draw(labeled_rows())
            if all(field.strip() and "\t" not in field for field in row)]
    lines = [draw(st.sampled_from(["", " "])) + "\t".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 4))):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FILLER_LINES)))
    faulty = draw(st.integers(0, 2)) if draw(st.booleans()) else 0
    for _ in range(faulty):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(FAULTY_LINES)))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(lines) + draw(st.sampled_from(["", end]))
    bom = draw(st.sampled_from([b"", b"\xef\xbb\xbf"]))
    return bom + text.encode("utf-8"), bool(faulty)


class TestLoadGraph:
    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(triple_files())
    def test_equals_the_row_parser(self, tmp_path_factory, case):
        blob, faulty = case
        path = tmp_path_factory.getbasetemp() / "drawn_kg.tsv"
        path.write_bytes(blob)
        expected = outcome(lambda: reference_from_labeled_triples(reference_rows(path)))
        assert outcome(lambda: derived(load_graph(path))) == expected
        # outcome lists the concepts in order, or the error's type and message.
        assert (expected[0] is GraphFormatError) == faulty

    def test_the_first_of_several_faults_is_named(self, tmp_path):
        path = write_kg(tmp_path, "# c\na\tisa\tb\n\n\ta\tisa\tb\tc\nx\t \ty\nbroken\n")
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert str(err.value) == f"{path}:4: expected 3 tab-separated fields, got 5"
        path = write_kg(tmp_path, "a\tisa\tb\r\nx\t \ty\r\nbroken\r\n")
        with pytest.raises(GraphFormatError, match=re.escape(f"{path}:2: empty field")):
            load_graph(path)

    def test_empty_file(self, tmp_path):
        kg = load_graph(write_kg(tmp_path, ""))
        assert len(kg.triples) == 0
        assert len(kg.concepts) == 0

    def test_duplicate_triples_collapse(self, tmp_path):
        kg = load_graph(write_kg(tmp_path, "a\tisa\tb\na\tisa\tb\nb\tisa\tc\n"))
        assert len(kg.triples) == 2

    def test_taxonomy_cycle_reports_members(self, tmp_path):
        path = write_kg(tmp_path, "a\tisa\tb\nb\tisa\ta\n")
        with pytest.raises(TaxonomyCycleError) as err:
            load_graph(path)
        assert set(err.value.members) == {"a", "b"}

    def test_taxonomy_self_loop_is_a_cycle(self, tmp_path):
        with pytest.raises(TaxonomyCycleError) as err:
            load_graph(write_kg(tmp_path, "a\tisa\ta\n"))
        assert err.value.members == ("a",)

    def test_the_first_fault_in_file_order_is_named_under_any_hash_seed(self, tmp_path):
        # Each hash seed iterates the triple set in another order; the
        # messages must follow the file's order instead.
        path = write_kg(tmp_path, "".join(f"{c}\tisa\t{c}\n" for c in "mbqc"))
        script = (
            "import sys\n"
            "from kginfuse.kg import KnowledgeGraph, Triple, load_graph\n"
            "from kginfuse.errors import ValidationError\n"
            "try:\n"
            "    load_graph(sys.argv[1])\n"
            "except ValidationError as exc:\n"
            "    print(exc)\n"
            "rows = [('a', 'isa', 'a'), ('a', 'rel', 'ghost3'), ('ghost1', 'isa', 'a'),\n"
            "        ('ghost2', 'rel', 'ghost4')]\n"
            "try:\n"
            "    KnowledgeGraph([Triple(*row) for row in rows], {'a': 'a'})\n"
            "except ValidationError as exc:\n"
            "    print(exc)\n"
        )
        src = os.path.dirname(os.path.dirname(kginfuse.__file__))
        for seed in range(1, 6):
            env = {**os.environ, "PYTHONHASHSEED": str(seed),
                   "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
            run = subprocess.run([sys.executable, "-c", script, str(path)], env=env,
                                 capture_output=True, text=True, check=True)
            assert run.stdout.splitlines() == [
                "taxonomy cycle through {m}",
                "triple references unknown concept: "
                "Triple(subject='a', predicate='rel', object='ghost3')",
            ], f"PYTHONHASHSEED={seed}"

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = write_kg(tmp_path, "a\tisa\tb\nbroken line\n")
        with pytest.raises(GraphFormatError) as err:
            load_graph(path)
        assert err.value.line_number == 2

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        kg = load_graph(write_kg(tmp_path, "# header\n\na\tisa\tb\n  # indented\n"))
        assert len(kg.triples) == 1

    def test_labels_dedup_after_normalization(self, tmp_path):
        kg = load_graph(write_kg(tmp_path, "Cat\tisa\tMammal\ncat\tISA\t mammal \n"))
        assert len(kg.triples) == 1
        assert set(kg.concepts) == {"cat", "mammal"}

    def test_non_utf8_names_path_and_line(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_bytes("a\tisa\tb\ncaf\u00e9\tisa\tb\n".encode("latin-1"))
        with pytest.raises(ValidationError, match=re.escape(f"{path}:2: not valid UTF-8")):
            load_graph(path)

    def test_crlf_and_cr_line_ends_read_like_lf(self, tmp_path):
        path = tmp_path / "kg.tsv"
        path.write_bytes(b"a\tisa\tb\r\nb\tisa\tc\rc\tisa\td\n")
        assert len(load_graph(path).triples) == 3


class TestLcsDistance:
    def test_identity_is_zero(self):
        kg = KnowledgeGraph.from_labeled_triples([("cat", "isa", "mammal")])
        assert lcs_distance(kg, "cat", "cat") == 0

    def test_siblings_via_enumeration_oracle(self):
        kg = KnowledgeGraph.from_labeled_triples(
            [("cat", "isa", "mammal"), ("dog", "isa", "mammal")]
        )
        assert brute_lcs(kg, "cat", "dog") == 2
        assert lcs_distance(kg, "cat", "dog") == 2

    def test_disjoint_trees_have_no_distance(self):
        kg = KnowledgeGraph.from_labeled_triples(
            [("cat", "isa", "mammal"), ("oak", "isa", "tree")]
        )
        assert lcs_distance(kg, "cat", "oak") is None

    def test_unknown_concept_raises(self):
        kg = KnowledgeGraph.from_labeled_triples([("cat", "isa", "mammal")])
        with pytest.raises(UnknownConceptError):
            lcs_distance(kg, "cat", "ghost")

    def test_multi_parent_minimum(self):
        # x has two parents; the nearer shared ancestor must win.
        kg = KnowledgeGraph.from_labeled_triples([
            ("x", "isa", "p"),
            ("x", "isa", "q"),
            ("y", "isa", "q"),
            ("p", "isa", "root"),
            ("q", "isa", "root"),
        ])
        assert lcs_distance(kg, "x", "y") == brute_lcs(kg, "x", "y") == 2

    def test_symmetry_on_random_dags(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            n = 12
            rows = []
            for child in range(1, n):
                for parent in rng.choice(child, size=min(child, 2), replace=False):
                    if rng.random() < 0.7:
                        rows.append((f"c{child}", "isa", f"c{int(parent)}"))
            if not rows:
                continue
            kg = KnowledgeGraph.from_labeled_triples(rows)
            ids = sorted(kg.concepts)
            for a in ids:
                for b in ids:
                    assert lcs_distance(kg, a, b) == lcs_distance(kg, b, a)
                    assert lcs_distance(kg, a, b) == brute_lcs(kg, a, b)

    def test_every_synth_concept_is_at_distance_zero_from_itself(self, tmp_path):
        cfg = parse_config(generate_benchmark(str(tmp_path), seed=0).config)
        kg = load_graph(cfg.kg_path)
        assert all(lcs_distance(kg, c, c) == 0 for c in kg.concepts)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(st.data())
    def test_memoized_distances_equal_the_uncached_oracle_in_any_query_order(self, data):
        n = data.draw(st.integers(2, 9))
        rows = [(f"c{child}", "isa", f"c{parent}") for child in range(1, n)
                for parent in data.draw(st.sets(st.integers(0, child - 1), max_size=2))]
        rows.append(("c0", "related", f"c{n - 1}"))  # never empty; not a taxonomy edge
        kg = KnowledgeGraph.from_labeled_triples(rows)
        pairs = [(a, b) for a in sorted(kg.concepts) for b in sorted(kg.concepts)]
        for a, b in data.draw(st.permutations(pairs)):
            assert lcs_distance(kg, a, b) == brute_lcs(kg, a, b)


class TestNHopNeighborhood:
    def test_zero_hops_keeps_only_seed_triples(self):
        kg = KnowledgeGraph.from_labeled_triples([
            ("a", "linked", "b"),
            ("a", "linked", "a"),
        ])
        sub = n_hop_neighborhood(kg, {"a"}, 0)
        assert sub.triples == {Triple("a", "linked", "a")}
        assert sub.frontier_depth == {"a": 0}

    def test_chain_two_hops_by_hand(self):
        kg = chain_graph(["a", "b", "c", "d"])
        sub = n_hop_neighborhood(kg, {"a"}, 2)
        assert sub.triples == {Triple("a", "linked", "b"), Triple("b", "linked", "c")}
        assert sub.frontier_depth == {"a": 0, "b": 1, "c": 2}

    def test_all_seeds_cover_everything(self):
        kg = chain_graph(["a", "b", "c", "d"])
        sub = n_hop_neighborhood(kg, set(kg.concepts), 1)
        assert sub.triples == kg.triples

    def test_unknown_seed_raises(self):
        kg = chain_graph(["a", "b"])
        with pytest.raises(UnknownConceptError):
            n_hop_neighborhood(kg, {"ghost"}, 1)

    def test_empty_seed_set_rejected(self):
        kg = chain_graph(["a", "b"])
        with pytest.raises(ValidationError):
            n_hop_neighborhood(kg, set(), 1)

    def test_monotone_in_hop_count(self):
        rng = np.random.default_rng(5)
        names = [f"n{i}" for i in range(15)]
        rows = []
        for _ in range(25):
            s, o = rng.choice(15, size=2, replace=False)
            rows.append((names[s], "linked", names[o]))
        kg = KnowledgeGraph.from_labeled_triples(rows)
        seeds = {sorted(kg.concepts)[0]}
        previous = frozenset()
        for n in range(5):
            current = n_hop_neighborhood(kg, seeds, n).triples
            assert previous <= current
            previous = current


def test_graph_stats():
    kg = KnowledgeGraph.from_labeled_triples([
        ("cat", "isa", "mammal"),
        ("mammal", "isa", "animal"),
        ("cat", "chases", "dog"),
        ("dog", "isa", "mammal"),
    ])
    stats = graph_stats(kg)
    assert stats["concepts"] == 4
    assert stats["triples"] == 4
    assert stats["taxonomy_depth"] == 2
    # Several parents per concept, and chains of unequal length to a root.
    dag = KnowledgeGraph.from_labeled_triples([
        ("kitten", "isa", "cat"),
        ("cat", "isa", "pet"),
        ("cat", "isa", "mammal"),
        ("pet", "isa", "role"),
        ("mammal", "isa", "animal"),
        ("animal", "isa", "organism"),
        ("pet", "isa", "organism"),
        ("organism", "isa", "entity"),
        ("role", "isa", "entity"),
        ("dog", "isa", "pet"),
    ])
    assert graph_stats(dag)["taxonomy_depth"] == 5
