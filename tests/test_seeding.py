"""Corpus statistics, KL relevance scoring, and seeded extraction."""

import importlib
import math
import os
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kginfuse.config import parse_config
from kginfuse.datasets import read_labeled_tsv
from kginfuse.embedding import DimensionModel, embed_concepts, embed_token_lists
from kginfuse.errors import ValidationError
from kginfuse import pipeline
from kginfuse.kg import KnowledgeGraph, load_graph, n_hop_neighborhood
from kginfuse.pipeline import link_concepts
from kginfuse.storage import read_text
from kginfuse.synth import DIAGNOSTIC_TOKENS, generate_benchmark
from kginfuse.seeding import corpus_stats, extract_seeded_subkg, relevance_score
from kginfuse.text import tokenize

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")

def brute_relevance(concept_label, dataset, target_class):
    """Independent recomputation straight from the raw documents."""
    tokens_per_doc = [(label, tokenize(text)) for label, text in dataset]
    vocab = sorted({t for _, toks in tokens_per_doc for t in toks})
    target_total = sum(len(toks) for label, toks in tokens_per_doc if label == target_class)
    all_total = sum(len(toks) for _, toks in tokens_per_doc)
    score = 0.0
    for token in tokenize(concept_label):
        c_target = sum(
            toks.count(token) for label, toks in tokens_per_doc if label == target_class
        )
        c_all = sum(toks.count(token) for _, toks in tokens_per_doc)
        p = (c_target + 1) / (target_total + len(vocab))
        q = (c_all + 1) / (all_total + len(vocab))
        score += p * math.log(p / q)
    return score


def seeds(seeded):
    return {c for c, d in seeded.subkg.frontier_depth.items() if d == 0}


def zero_model(tokens, d_sub=2):
    vocab = {t: i for i, t in enumerate(sorted(tokens))}
    rng = np.random.default_rng(0)
    return DimensionModel("m", vocab, rng.normal(size=(len(vocab), d_sub)), d_sub)


class TestCorpusStats:
    def test_single_document_counts(self):
        stats = corpus_stats([("pos", "a a b")])
        assert stats.class_token_counts["pos"] == {"a": 2, "b": 1}
        assert stats.class_totals["pos"] == 3

    def test_classes_accumulate_disjointly(self):
        stats = corpus_stats([("pos", "a b"), ("neg", "b c c")])
        assert stats.class_token_counts["pos"] == {"a": 1, "b": 1}
        assert stats.class_token_counts["neg"] == {"b": 1, "c": 2}
        assert stats.overall_count("b") == 2

    def test_punctuation_only_document_is_harmless(self):
        stats = corpus_stats([("pos", "?!... ---"), ("pos", "a")])
        assert stats.class_totals["pos"] == 1

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError):
            corpus_stats([])

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.lists(st.tuples(st.sampled_from(["pos", "neg"]),
                              st.text(alphabet="ab Σς.\n\t\r-_", max_size=12)), min_size=1))
    @example([("pos", "alpha\nbeta ODΣ"), ("neg", "ΣΣ.\nbeta")])
    def test_counts_equal_the_per_document_tokenize_counts(self, dataset):
        stats = corpus_stats(dataset)
        want = {}
        for label, text in dataset:
            want.setdefault(label, Counter()).update(tokenize(text))
        assert stats.class_token_counts == want
        assert stats.class_totals == {label: sum(c.values()) for label, c in want.items()}
        assert stats.vocab == frozenset().union(*want.values())


class TestRelevanceScore:
    def test_single_class_token_scores_zero(self):
        # With one class, target and background coincide, so p = q exactly.
        stats = corpus_stats([("pos", "a a b"), ("pos", "b a")])
        assert relevance_score(("a",), stats, "pos") == 0.0

    def test_hand_computed_smoothed_value(self):
        # Target tokens: a x9, b x1 (10 total). Other class: a x1, b x9.
        # Overall: a appears 10 of 20; vocab {a, b}.
        dataset = [("pos", " ".join(["a"] * 9 + ["b"])), ("neg", " ".join(["a"] + ["b"] * 9))]
        stats = corpus_stats(dataset)
        expected = (10 / 12) * math.log((10 / 12) / (1 / 2))
        got = relevance_score(("a",), stats, "pos")
        assert abs(got - expected) < 1e-15
        assert abs(brute_relevance("a", dataset, "pos") - expected) < 1e-15

    def test_absent_label_is_finite(self):
        stats = corpus_stats([("pos", "a b"), ("neg", "b c")])
        score = relevance_score(("zzz",), stats, "pos")
        assert math.isfinite(score)

    def test_multi_token_label_adds_up(self):
        dataset = [("pos", "red fox runs"), ("neg", "blue bird sits")]
        stats = corpus_stats(dataset)
        combined = relevance_score(("red", "fox"), stats, "pos")
        parts = relevance_score(("red",), stats, "pos") + relevance_score(
            ("fox",), stats, "pos"
        )
        assert abs(combined - parts) < 1e-15

    def test_unknown_target_class_rejected(self):
        stats = corpus_stats([("pos", "a")])
        with pytest.raises(ValidationError):
            relevance_score(("a",), stats, "nope")

    def test_label_without_tokens_rejected(self):
        stats = corpus_stats([("pos", "a")])
        with pytest.raises(ValidationError):
            relevance_score((), stats, "pos")

    def test_matches_brute_force_on_random_corpora(self):
        rng = np.random.default_rng(23)
        words = [f"w{i}" for i in range(12)]
        for _ in range(10):
            dataset = []
            for _ in range(8):
                label = "pos" if rng.random() < 0.5 else "neg"
                doc = " ".join(rng.choice(words, size=rng.integers(1, 9)))
                dataset.append((label, doc))
            if not any(lbl == "pos" for lbl, _ in dataset):
                dataset.append(("pos", "w0"))
            stats = corpus_stats(dataset)
            for w in words:
                got = relevance_score((w,), stats, "pos")
                want = brute_relevance(w, dataset, "pos")
                assert abs(got - want) < 1e-12


TOY_KG_ROWS = [
    ("jihad", "isa", "doctrine"),
    ("doctrine", "isa", "ideology"),
    ("banner", "related", "jihad"),
    ("garden", "isa", "place"),
    ("river", "related", "garden"),
]


class TestExtractSeededSubkg:
    def make_inputs(self):
        kg = KnowledgeGraph.from_labeled_triples(TOY_KG_ROWS)
        dataset = [
            ("pos", "jihad banner jihad march"),
            ("pos", "jihad doctrine spreads"),
            ("neg", "garden river walk"),
            ("neg", "river garden calm banner"),
        ]
        stats = corpus_stats(dataset)
        model = zero_model(sorted({t for _, text in dataset for t in tokenize(text)}
                                  | {"doctrine", "ideology", "place"}))
        return kg, dataset, stats, model

    def test_argmax_seed_confirmed_by_brute_force(self):
        kg, dataset, stats, model = self.make_inputs()
        seeded = extract_seeded_subkg(kg, stats, "pos", hops=2, top_m=1)
        brute = {
            cid: brute_relevance(kg.concepts[cid], dataset, "pos")
            for cid in kg.concepts
            if all(t in stats.vocab for t in tokenize(kg.concepts[cid]))
        }
        best = max(brute, key=lambda c: (brute[c], c))
        assert seeds(seeded) == {best} == {"jihad"}
        expected = n_hop_neighborhood(kg, {"jihad"}, 2)
        assert seeded.subkg.triples == expected.triples

    def test_zero_hops_single_concept_self_triples(self):
        kg = KnowledgeGraph.from_labeled_triples([("solo", "related", "solo"),
                                                  ("solo", "related", "other")])
        stats = corpus_stats([("pos", "solo solo"), ("neg", "filler")])
        seeded = extract_seeded_subkg(kg, stats, "pos", hops=0, top_m=1)
        assert seeds(seeded) == {"solo"}
        assert {(t.subject, t.object) for t in seeded.subkg.triples} == {("solo", "solo")}

    def test_boundary_ties_are_included(self):
        kg = KnowledgeGraph.from_labeled_triples([
            ("x", "related", "pad1"), ("y", "related", "pad2"), ("z", "related", "pad3"),
        ])
        # x and y have identical pos-heavy counts; z is neutral.
        dataset = [("pos", "x y x y"), ("neg", "z z x y")]
        stats = corpus_stats(dataset)
        seeded = extract_seeded_subkg(kg, stats, "pos", hops=0, top_m=1)
        assert seeds(seeded) == {"x", "y"}

    def test_document_order_never_changes_seeds(self):
        kg, dataset, stats, model = self.make_inputs()
        base = extract_seeded_subkg(kg, corpus_stats(dataset), "pos", 1, 2)
        rng = np.random.default_rng(4)
        for _ in range(6):
            shuffled = list(dataset)
            rng.shuffle(shuffled)
            again = extract_seeded_subkg(kg, corpus_stats(shuffled), "pos", 1, 2)
            assert seeds(again) == seeds(base)
            assert again.subkg.triples == base.subkg.triples

    def test_non_ascii_labels_are_linked_seeded_and_embedded(self):
        # casefold and lower disagree on these labels (ids "strasse" and
        # "οδοσ", tokens "straße" and "οδος"); every consumer matches the
        # label's tokens, so none of them loses the concept.
        kg = KnowledgeGraph.from_labeled_triples([("Straße", "isa", "Weg"),
                                                  ("ΟΔΟΣ", "isa", "Weg")])
        text = "die straße und οδος"
        stats = corpus_stats([("pos", text), ("neg", "ein weg")])
        model = zero_model(stats.vocab)
        assert link_concepts(kg, tokenize(text)) == {"strasse", "οδοσ"}
        seeded = extract_seeded_subkg(kg, stats, "pos", hops=0, top_m=2)
        assert seeds(seeded) == {"strasse", "οδοσ"}
        _, embedded = embed_concepts(kg, sorted(seeded.subkg.frontier_depth), [model])
        assert embedded == ("strasse", "οδοσ")
        _, hits = embed_token_lists([model], [kg.label_tokens[c] for c in embedded])
        assert hits.all()

    def test_no_vocabulary_overlap_rejected(self):
        kg = KnowledgeGraph.from_labeled_triples([("qqq", "related", "www")])
        stats = corpus_stats([("pos", "alpha beta")])
        with pytest.raises(ValidationError):
            extract_seeded_subkg(kg, stats, "pos", 1, 1)

    def test_matrix_columns_are_unit_norm(self):
        kg, dataset, stats, model = self.make_inputs()
        seeded = extract_seeded_subkg(kg, stats, "pos", hops=2, top_m=2)
        matrix, embedded = embed_concepts(kg, sorted(seeded.subkg.frontier_depth), [model])
        assert matrix.shape[1] == len(embedded)
        assert matrix.shape[1] <= len(seeded.subkg.concepts())
        norms = np.linalg.norm(matrix, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert set(seeded.relevance) == {cid for cid, tokens in kg.label_tokens.items()
                                         if tokens and stats.vocab.issuperset(tokens)}


def _synth_project(tmp_path, monkeypatch):
    return generate_benchmark(str(tmp_path), seed=0).config


def _wide_graph_project(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("workloads").generate("wide-graph", str(tmp_path), 0)


@pytest.mark.parametrize("project", [_synth_project, _wide_graph_project])
def test_every_seeded_score_is_relevance_score_exactly(tmp_path, monkeypatch, project):
    cfg = parse_config(project(tmp_path, monkeypatch))
    kg = load_graph(cfg.kg_path, cfg.taxonomy_predicate)
    stats = corpus_stats(read_labeled_tsv(cfg.dataset_path))
    # As configured, and with every scored concept a seed.
    for hops, top_m in ((cfg.subkg_hops, cfg.top_m), (0, len(kg.concepts))):
        seeded = extract_seeded_subkg(kg, stats, cfg.target_class, hops, top_m)
        assert len(seeded.relevance) >= min(top_m, cfg.top_m)
        for cid, score in seeded.relevance.items():
            assert score == relevance_score(kg.label_tokens[cid], stats, cfg.target_class), cid
    assert len(seeded.relevance) == sum(
        stats.vocab.issuperset(tokens) for tokens in kg.label_tokens.values() if tokens)


def test_an_absorbing_update_keeps_every_score_seeding_gave(tmp_path):
    cfg = replace(parse_config(generate_benchmark(str(tmp_path), seed=0).config), mode="infused")
    pipeline.build(cfg)
    scores_path = os.path.join(cfg.out_dir, "subkg", "scores.tsv")
    with open(scores_path, "rb") as handle:
        built = handle.read()
    outcome = pipeline.update_kg(cfg, pipeline.train(cfg).checkpoint_path)
    assert outcome.reason == "updated" and outcome.new_concepts > 0
    with open(scores_path, "rb") as handle:
        assert handle.read() == built

    rows = read_labeled_tsv(cfg.dataset_path)
    vocab = {token for _, text in rows for token in tokenize(text)}
    kg = load_graph(cfg.kg_path, cfg.taxonomy_predicate)
    stats = corpus_stats(rows)
    stored = {cid: float(score) for cid, score in
              (line.split("\t") for line in built.decode("utf-8").splitlines())}
    assert set(stored) == {cid for cid, tokens in kg.label_tokens.items()
                           if tokens and vocab.issuperset(tokens)}
    for cid, score in stored.items():
        assert score == relevance_score(kg.label_tokens[cid], stats, "pos"), cid
    # The negative class's words, which the update absorbs, score below every
    # diagnostic; absorbed concepts with a label word outside the training
    # set have no score, as the build's unscored neighbours have none.
    negative = {"meadow", "picnic", "lullaby", "orchard"}
    assert max(stored[cid] for cid in negative) < min(stored[t] for t in DIAGNOSTIC_TOKENS)
    depths = read_text(os.path.join(cfg.out_dir, "subkg", "depths.tsv"))
    in_subgraph = {line.split("\t")[0] for line in depths.splitlines()}
    unscored = {"brook", "calm", "garden", "hammock", "teapot", "scene",
                "portent", "threat", "warning"}
    assert negative | unscored <= in_subgraph and not unscored & set(stored)


def test_long_labels_sum_their_terms_in_label_order():
    # From three terms on, the order of a float sum shows in its value.
    rng = np.random.default_rng(5)
    words = [f"w{i}" for i in range(12)]
    dataset = [("pos" if i % 3 else "neg", " ".join(rng.choice(words, size=8)))
               for i in range(30)]
    labels = [" ".join(rng.choice(words, size=rng.integers(3, 7))) for _ in range(40)]
    kg = KnowledgeGraph.from_labeled_triples(
        [(labels[i], "related", labels[i + 1]) for i in range(len(labels) - 1)])
    stats = corpus_stats(dataset)
    seeded = extract_seeded_subkg(kg, stats, "pos", 0, len(kg.concepts))
    assert len(seeded.relevance) == len(kg.concepts)
    for cid, score in seeded.relevance.items():
        assert score == relevance_score(kg.label_tokens[cid], stats, "pos"), cid
