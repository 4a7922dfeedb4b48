"""Graph store: loading, taxonomy distances, hop neighborhoods."""

import re

import numpy as np
import pytest

from kginfuse.errors import (
    GraphFormatError,
    TaxonomyCycleError,
    UnknownConceptError,
    ValidationError,
)
from kginfuse.kg import (
    KnowledgeGraph,
    Triple,
    graph_stats,
    lcs_distance,
    load_graph,
    n_hop_neighborhood,
)


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


class TestLoadGraph:
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
