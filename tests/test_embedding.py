"""Dimension models, content concatenation, and the knowledge embedding."""

import math

import numpy as np
import pytest

from kginfuse.embedding import (
    DimensionModel,
    _positive_pmi,
    concept_embedding,
    content_width,
    embed_concepts,
    embed_tokens,
    knowledge_embedding,
    train_dimension_model,
)
from kginfuse.errors import ValidationError
from kginfuse.kg import Concept, KnowledgeGraph, n_hop_neighborhood
from kginfuse.seeding import SeededSubKG


def make_model(name, vectors_by_token, d_sub):
    """Hand-built model with explicit vectors, for arithmetic checks."""
    vocab = {tok: i for i, tok in enumerate(sorted(vectors_by_token))}
    table = np.zeros((len(vocab), d_sub))
    for tok, idx in vocab.items():
        table[idx] = vectors_by_token[tok]
    return DimensionModel(name, vocab, table, d_sub)


class TestTrainDimensionModel:
    def test_single_repeated_token(self):
        model = train_dimension_model(["echo echo echo"], d_sub=1, window=2, seed=0)
        assert len(model.vocab) == 1
        assert model.vectors.shape == (1, 1)

    def test_d_sub_larger_than_vocab_rejected(self):
        with pytest.raises(ValidationError):
            train_dimension_model(["echo echo"], d_sub=2, window=1, seed=0)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train_dimension_model(["...", "!"], d_sub=1, window=1, seed=0)

    def test_ppmi_of_two_token_corpus_by_hand(self):
        # Five documents "alpha beta": counts [[0,5],[5,0]], total 10,
        # margins all 5, so pmi = ln(5*10/25) = ln 2 off-diagonal.
        counts = np.array([[0.0, 5.0], [5.0, 0.0]])
        expected = np.array([[0.0, math.log(2)], [math.log(2), 0.0]])
        np.testing.assert_allclose(_positive_pmi(counts), expected, atol=1e-15)

    def test_co_occurring_tokens_align(self):
        # alpha and beta co-occur in every document they appear in; the
        # third document keeps the factorization non-degenerate.
        corpus = ["alpha beta gamma", "beta alpha gamma", "gamma delta epsilon"] * 3
        model = train_dimension_model(corpus, d_sub=2, window=2, seed=0)
        va = model.vectors[model.vocab["alpha"]]
        vb = model.vectors[model.vocab["beta"]]
        cos = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
        assert cos > 0.99

    def test_deterministic_given_seed(self):
        corpus = ["north wind rises", "wind over water", "north water cold"]
        a = train_dimension_model(corpus, d_sub=2, window=2, seed=9)
        b = train_dimension_model(corpus, d_sub=2, window=2, seed=9)
        assert a.vocab == b.vocab
        assert np.array_equal(a.vectors, b.vectors)


class TestEmbedText:
    """embed_tokens: the per-dimension token mean behind concept_embedding."""

    def setup_method(self):
        self.m1 = make_model("one", {"sun": [1.0, 2.0], "moon": [3.0, -1.0]}, 2)
        self.m2 = make_model("two", {"sun": [5.0]}, 1)

    def test_out_of_vocab_gives_zero_vector(self):
        cv = embed_tokens([self.m1, self.m2], ["nothing", "known", "here"])
        assert cv.values.shape == (3,)
        assert not cv.values.any()
        assert cv.hit_count == 0

    def test_single_token_fills_only_its_slices(self):
        cv1 = embed_tokens([self.m1], ["moon"])
        np.testing.assert_array_equal(cv1.values, [3.0, -1.0])
        cv2 = embed_tokens([self.m1, self.m2], ["moon"])
        np.testing.assert_array_equal(cv2.values, [3.0, -1.0, 0.0])

    def test_mean_of_two_tokens_by_hand(self):
        cv = embed_tokens([self.m1], ["sun", "moon"])
        np.testing.assert_allclose(cv.values, [(1 + 3) / 2, (2 - 1) / 2])

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(3)
        toks = {f"t{i}": rng.normal(size=3) for i in range(6)}
        model = make_model("rand", toks, 3)
        words = list(toks) + ["t0", "t3"]
        for _ in range(10):
            rng.shuffle(words)
            base = embed_tokens([model], words).values
            rng.shuffle(words)
            other = embed_tokens([model], words).values
            assert np.array_equal(base, other)

    def test_offsets_partition_total_width(self):
        cv = embed_tokens([self.m1, self.m2], ["sun"])
        assert cv.values.shape[0] == content_width([self.m1, self.m2])
        np.testing.assert_array_equal(cv.values, [1.0, 2.0, 5.0])


class TestConceptEmbedding:
    def test_unigram_label_equals_embed_text(self):
        model = make_model("m", {"sun": [1.0, 0.0]}, 2)
        cv = concept_embedding([model], Concept("sun", "Sun"))
        np.testing.assert_array_equal(cv.values, embed_tokens([model], ["sun"]).values)

    def test_multiword_label_is_token_mean(self):
        model = make_model("m", {"red": [2.0], "fox": [4.0]}, 1)
        cv = concept_embedding([model], Concept("red fox", "Red Fox"))
        np.testing.assert_allclose(cv.values, [3.0])

    def test_out_of_vocab_label_flagged_unresolvable(self):
        model = make_model("m", {"sun": [1.0]}, 1)
        cv = concept_embedding([model], Concept("void", "Void"))
        assert cv.hit_count == 0
        assert not cv.values.any()


def seeded_from(kg, seeds, hops, models):
    sub = n_hop_neighborhood(kg, seeds, hops)
    matrix, embedded = embed_concepts(kg, sorted(sub.concepts()), models)
    return SeededSubKG(sub, {}, matrix, embedded)


class TestKnowledgeEmbedding:
    def test_single_self_pair_is_normalized_embedding(self):
        kg = KnowledgeGraph.from_labeled_triples([("sun", "related", "sun")])
        model = make_model("m", {"sun": [3.0, 4.0]}, 2)
        seeded = seeded_from(kg, {"sun"}, 0, [model])
        ke = knowledge_embedding(seeded, [model])
        assert ke.pair_count == 1
        np.testing.assert_allclose(ke.values, [0.6, 0.8])

    def test_two_pairs_weighted_by_hand(self):
        # Pair 1: self-triple, taxonomy distance 0 -> weight 1.
        # Pair 2: child/parent, taxonomy distance 1 -> weight 1/2.
        kg = KnowledgeGraph.from_labeled_triples([
            ("sun", "related", "sun"),
            ("ember", "isa", "fire"),
        ])
        model = make_model(
            "m", {"sun": [1.0, 0.0], "ember": [0.0, 2.0], "fire": [0.0, 4.0]}, 2
        )
        seeded = seeded_from(kg, set(kg.concepts), 1, [model])
        ke = knowledge_embedding(seeded, [model])
        m1 = np.array([1.0, 0.0])
        m2 = (np.array([0.0, 2.0]) + np.array([0.0, 4.0])) / 2
        expected = 1.0 * m1 + 0.5 * m2
        expected /= np.linalg.norm(expected)
        assert ke.pair_count == 2
        np.testing.assert_allclose(ke.values, expected, atol=1e-15)

    def test_cross_link_without_common_ancestor_weighs_half(self):
        # Pair 1: self-triple, taxonomy distance 0 -> weight 1.
        # Pair 2: ember and ice share no taxonomy ancestor; as the endpoints
        # of one triple they are adjacent -> weight 1/(1 + 1) = 1/2.
        kg = KnowledgeGraph.from_labeled_triples([
            ("sun", "related", "sun"),
            ("ember", "related", "ice"),
        ])
        model = make_model(
            "m", {"sun": [1.0, 0.0], "ember": [0.0, 2.0], "ice": [0.0, 4.0]}, 2
        )
        seeded = seeded_from(kg, set(kg.concepts), 1, [model])
        ke = knowledge_embedding(seeded, [model])
        expected = np.array([1.0, 0.5 * 3.0])
        expected /= np.linalg.norm(expected)
        assert ke.pair_count == 2
        np.testing.assert_allclose(ke.values, expected, atol=1e-15)

    def test_empty_allowlist_gives_zero(self):
        kg = KnowledgeGraph.from_labeled_triples([("sun", "related", "sun")])
        model = make_model("m", {"sun": [1.0]}, 1)
        seeded = seeded_from(kg, {"sun"}, 0, [model])
        ke = knowledge_embedding(seeded, [model], allowlist=frozenset())
        assert ke.pair_count == 0
        assert not ke.values.any()

    def test_unresolvable_endpoint_skipped(self):
        kg = KnowledgeGraph.from_labeled_triples([("sun", "related", "void")])
        model = make_model("m", {"sun": [1.0]}, 1)
        seeded = seeded_from(kg, set(kg.concepts), 1, [model])
        ke = knowledge_embedding(seeded, [model])
        assert ke.pair_count == 0

    def test_unit_norm_and_weight_scale_invariance(self):
        rng = np.random.default_rng(17)
        toks = {f"w{i}": rng.normal(size=3) for i in range(6)}
        model = make_model("m", toks, 3)
        rows = [
            ("w0", "isa", "w1"),
            ("w2", "isa", "w1"),
            ("w0", "related", "w2"),
            ("w3", "related", "w4"),
        ]
        kg = KnowledgeGraph.from_labeled_triples(rows)
        seeded = seeded_from(kg, set(kg.concepts), 2, [model])
        ke = knowledge_embedding(seeded, [model])
        assert ke.pair_count > 0
        assert abs(np.linalg.norm(ke.values) - 1.0) < 1e-12
        # Doubling every pair weight cannot move the normalized sum.
        doubled = brute_force_ke(seeded, [model], weight_scale=2.0)
        np.testing.assert_allclose(ke.values, doubled, atol=1e-12)


def brute_force_ke(seeded, models, weight_scale=1.0, allowlist=None):
    """Independent recomputation: explicit loops over triples and labels."""
    from kginfuse.kg import lcs_distance
    from kginfuse.text import tokenize

    kg = seeded.subkg.parent
    total = np.zeros(content_width(models))
    pairs = 0
    for t in sorted(seeded.subkg.triples):
        if allowlist is not None and t.predicate not in allowlist:
            continue
        vecs = []
        ok = True
        for cid in (t.subject, t.object):
            label_tokens = sorted(
                tok for tok in tokenize(kg.concepts[cid].label)
                if any(tok in m.vocab for m in models)
            )
            pieces = []
            any_hit = False
            for m in models:
                hits = [m.vectors[m.vocab[tok]] for tok in sorted(tokenize(kg.concepts[cid].label)) if tok in m.vocab]
                if hits:
                    pieces.append(np.mean(hits, axis=0))
                    any_hit = True
                else:
                    pieces.append(np.zeros(m.d_sub))
            if not any_hit:
                ok = False
                break
            vecs.append(np.concatenate(pieces))
        if not ok:
            continue
        dist = lcs_distance(kg, t.subject, t.object)
        if dist is None:
            dist = 1 if t.subject != t.object else 0
        total += weight_scale * (1.0 / (1.0 + dist)) * (vecs[0] + vecs[1]) / 2.0
        pairs += 1
    norm = np.linalg.norm(total)
    return total / norm if pairs and norm else np.zeros_like(total)
