"""Dimension models, content concatenation, and the knowledge embedding."""

import importlib
import math
import os
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kginfuse import pipeline
from kginfuse.config import parse_config
from kginfuse.embedding import (
    DimensionModel,
    _cooccurrence_pairs,
    _fix_signs,
    _ppmi_matrix,
    content_width,
    embed_token_lists,
    knowledge_embedding,
    train_dimension_model,
)
from kginfuse.errors import ValidationError
from kginfuse.kg import KnowledgeGraph, n_hop_neighborhood
from kginfuse.synth import generate_benchmark
from kginfuse.text import tokenize

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


def make_model(name, vectors_by_token, d_sub):
    """Hand-built model with explicit vectors, for arithmetic checks."""
    vocab = {tok: i for i, tok in enumerate(sorted(vectors_by_token))}
    table = np.zeros((len(vocab), d_sub))
    for tok, idx in vocab.items():
        table[idx] = vectors_by_token[tok]
    return DimensionModel(name, vocab, table, d_sub)


class TestTrainDimensionModel:
    def test_single_repeated_token(self):
        model = train_dimension_model(["echo echo echo"], d_sub=1, window=2)
        assert len(model.vocab) == 1
        assert model.vectors.shape == (1, 1)

    def test_d_sub_larger_than_vocab_rejected(self):
        with pytest.raises(ValidationError):
            train_dimension_model(["echo echo"], d_sub=2, window=1)

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            train_dimension_model(["...", "!"], d_sub=1, window=1)

    def test_ppmi_of_two_token_corpus_by_hand(self):
        # Five documents "alpha beta": counts [[0,5],[5,0]], total 10,
        # margins all 5, so pmi = ln(5*10/25) = ln 2 off-diagonal.
        expected = np.array([[0.0, math.log(2)], [math.log(2), 0.0]])
        np.testing.assert_allclose(pair_ppmi([[0, 1]] * 5, 2, 1), expected, atol=1e-15)

    def test_co_occurring_tokens_align(self):
        # alpha and beta co-occur in every document they appear in; the
        # third document keeps the factorization non-degenerate.
        corpus = ["alpha beta gamma", "beta alpha gamma", "gamma delta epsilon"] * 3
        model = train_dimension_model(corpus, d_sub=2, window=2)
        va = model.vectors[model.vocab["alpha"]]
        vb = model.vectors[model.vocab["beta"]]
        cos = float(va @ vb / (np.linalg.norm(va) * np.linalg.norm(vb)))
        assert cos > 0.99

    def test_deterministic(self):
        corpus = ["north wind rises", "wind over water", "north water cold"]
        a = train_dimension_model(corpus, d_sub=2, window=2)
        b = train_dimension_model(corpus, d_sub=2, window=2)
        assert a.vocab == b.vocab
        assert np.array_equal(a.vectors, b.vectors)

    def test_equal_magnitudes_keep_the_positive_eigenvalue(self):
        # The PPMI matrix [[0, ln 2], [ln 2, 0]] has eigenvalues +-ln 2,
        # with eigenvectors (1, 1) and (1, -1) over sqrt(2).
        model = train_dimension_model(["alpha beta"] * 5, d_sub=1, window=1)
        a, b = model.vectors[:, 0]
        assert a == b
        assert a > 0

    @pytest.mark.parametrize("dimension", ["general", "signal"])
    def test_matches_truncated_svd_on_synth_corpora(self, tmp_path, dimension):
        cfg = parse_config(generate_benchmark(tmp_path, seed=0).config)
        corpus = _corpus_lines(cfg.corpora[dimension])
        model = train_dimension_model(corpus, d_sub=cfg.d_sub[dimension], window=cfg.window)
        want = svd_oracle(corpus, cfg.d_sub[dimension], cfg.window)
        np.testing.assert_allclose(model.vectors, want, rtol=0, atol=1e-10)

    def test_matches_truncated_svd_on_a_wide_graph_corpus(self, tmp_path, monkeypatch):
        corpus, d_sub, window = _wide_graph_corpus(tmp_path, monkeypatch)
        model = train_dimension_model(corpus, d_sub=d_sub, window=window)
        want = svd_oracle(corpus, d_sub, window)
        np.testing.assert_allclose(model.vectors, want, rtol=0, atol=1e-10)


@st.composite
def id_corpora(draw):
    """(documents of token ids, vocabulary size), empty and 1-token documents included."""
    n = draw(st.integers(1, 8))
    docs = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=12), max_size=8))
    return docs, n


class TestCooccurrenceCounts:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(id_corpora(), st.integers(1, 6))
    def test_equal_to_the_loop(self, corpus, window):
        docs, n = corpus
        pairs, counts = _cooccurrence_pairs(*flat_ids(docs), n, window)
        assert counts.dtype == np.float64 and (counts > 0).all()
        assert (np.diff(pairs) > 0).all()
        got = np.zeros((n, n))
        got.flat[pairs] = counts
        assert np.array_equal(got, loop_counts(docs, n, window))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(id_corpora(), st.integers(1, 6))
    def test_ppmi_equals_the_dense_formula_bit_for_bit(self, corpus, window):
        # Empty and one-token documents, and corpora with no co-occurring
        # pair at all, are among the drawn cases.
        docs, n = corpus
        got = pair_ppmi(docs, n, window)
        want = dense_positive_pmi(loop_counts(docs, n, window))
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()  # signbits included

    def test_ppmi_of_a_wide_graph_corpus_equals_the_dense_formula(self, tmp_path, monkeypatch):
        corpus, d_sub, window = _wide_graph_corpus(tmp_path, monkeypatch)
        docs, n = _id_docs(corpus)
        got = pair_ppmi(docs, n, window)
        want = dense_positive_pmi(dense_cooccurrence_counts(docs, n, window))
        assert got.tobytes() == want.tobytes()

    def test_no_dense_temporary_besides_the_eigh_input(self, tmp_path, monkeypatch):
        # Counts and PMI kept as V x V arrays peak above 3 V^2 float64s.
        corpus, d_sub, window = _wide_graph_corpus(tmp_path, monkeypatch)
        v = _id_docs(corpus)[1]
        tracemalloc.start()
        try:
            train_dimension_model(corpus, d_sub=d_sub, window=window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * v * v * 8


def _wide_graph_corpus(tmp_path, monkeypatch):
    """wide-graph's topical corpus at seed 0: (documents, d_sub, window)."""
    monkeypatch.syspath_prepend(BENCH)
    workloads = importlib.import_module("workloads")
    cfg = parse_config(workloads.generate("wide-graph", str(tmp_path), 0))
    return _corpus_lines(cfg.corpora["topical"]), cfg.d_sub["topical"], cfg.window


def _id_docs(corpus):
    """(documents as token ids, vocabulary size), ids in sorted token order."""
    docs = [tokenize(doc) for doc in corpus]
    vocab = {tok: i for i, tok in enumerate(sorted({tok for doc in docs for tok in doc}))}
    return [[vocab[tok] for tok in doc] for doc in docs], len(vocab)


def flat_ids(docs):
    """(all token ids end to end, each document's length), as the model lays them out."""
    ids = np.array([t for doc in docs for t in doc], dtype=np.int64)
    return ids, np.array([len(doc) for doc in docs], dtype=np.intp)


def pair_ppmi(docs, n, window):
    """The model's PPMI matrix: pair counts, then PPMI at the pairs."""
    return _ppmi_matrix(*_cooccurrence_pairs(*flat_ids(docs), n, window), n)


def _corpus_lines(path):
    with open(path, encoding="utf-8") as fh:
        return [line for line in fh.read().split("\n") if line.strip()]


def loop_counts(docs, n, window):
    """Reference: every ordered pair of positions at most window apart."""
    counts = np.zeros((n, n))
    for ids in docs:
        for i, center in enumerate(ids):
            lo = max(0, i - window)
            hi = min(len(ids), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    counts[center, ids[j]] += 1.0
    return counts


def dense_cooccurrence_counts(docs, n, window):
    """Reference: n x n float counts, one bincount over flat pair ids per
    offset, of the positions at most window apart in one document."""
    ids = np.array([t for doc in docs for t in doc], dtype=np.int64)
    doc_of = np.repeat(np.arange(len(docs)), [len(doc) for doc in docs])
    longest = max((len(doc) for doc in docs), default=0)
    pair_ids = [np.empty(0, dtype=np.int64)]
    for k in range(1, min(window, longest - 1) + 1):
        same = doc_of[k:] == doc_of[:-k]
        a, b = ids[:-k][same], ids[k:][same]
        pair_ids += [a * n + b, b * n + a]
    flat = np.bincount(np.concatenate(pair_ids), minlength=n * n)
    return flat.reshape(n, n).astype(float)


def dense_positive_pmi(counts):
    """Reference: the positive PMI of a dense count matrix, entry by entry."""
    total = counts.sum()
    if total == 0:
        # Single-token corpus: no co-occurrence at all.
        return np.zeros_like(counts)
    row = counts.sum(axis=1, keepdims=True)
    col = counts.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        pmi = np.log(counts * total / (row * col))
    pmi[~np.isfinite(pmi)] = 0.0
    np.maximum(pmi, 0.0, out=pmi)
    return pmi


def svd_oracle(corpus, d_sub, window):
    """Reference: loop counts, dense PPMI, then the full SVD truncated to d_sub columns."""
    docs, n = _id_docs(corpus)
    u, s, _ = np.linalg.svd(dense_positive_pmi(loop_counts(docs, n, window)))
    return _fix_signs(u[:, :d_sub]) * np.sqrt(s[:d_sub])


def embed_one(models, tokens):
    """embed_token_lists on a single list: (values, hit count)."""
    values, hits = embed_token_lists(models, [tokens])
    assert values.shape == (1, content_width(models)) and hits.shape == (1,)
    return values[0], int(hits[0])


class TestEmbedText:
    """embed_token_lists on one list: the per-dimension token mean."""

    def setup_method(self):
        self.m1 = make_model("one", {"sun": [1.0, 2.0], "moon": [3.0, -1.0]}, 2)
        self.m2 = make_model("two", {"sun": [5.0]}, 1)

    def test_out_of_vocab_gives_zero_vector(self):
        values, hits = embed_one([self.m1, self.m2], ["nothing", "known", "here"])
        assert values.shape == (3,)
        assert not values.any()
        assert hits == 0

    def test_single_token_fills_only_its_slices(self):
        values1, _ = embed_one([self.m1], ["moon"])
        np.testing.assert_array_equal(values1, [3.0, -1.0])
        values2, _ = embed_one([self.m1, self.m2], ["moon"])
        np.testing.assert_array_equal(values2, [3.0, -1.0, 0.0])

    def test_mean_of_two_tokens_by_hand(self):
        values, _ = embed_one([self.m1], ["sun", "moon"])
        np.testing.assert_allclose(values, [(1 + 3) / 2, (2 - 1) / 2])

    def test_permutation_invariance_is_exact(self):
        rng = np.random.default_rng(3)
        toks = {f"t{i}": rng.normal(size=3) for i in range(6)}
        model = make_model("rand", toks, 3)
        words = list(toks) + ["t0", "t3"]
        for _ in range(10):
            rng.shuffle(words)
            base, _ = embed_one([model], words)
            rng.shuffle(words)
            other, _ = embed_one([model], words)
            assert np.array_equal(base, other)

    def test_offsets_partition_total_width(self):
        values, _ = embed_one([self.m1, self.m2], ["sun"])
        assert values.shape[0] == content_width([self.m1, self.m2])
        np.testing.assert_array_equal(values, [1.0, 2.0, 5.0])


_WORDS = ["ash", "birch", "cedar", "dune", "elm", "fern"]


@st.composite
def models_and_token_lists(draw):
    """1-3 models over parts of _WORDS, and token lists with repeated,
    out-of-vocabulary and no tokens; some vectors hold -0.0."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = []
    for m in range(draw(st.integers(1, 3))):
        words = sorted(draw(st.sets(st.sampled_from(_WORDS))))
        d_sub = draw(st.integers(1, 3))
        vectors = rng.normal(size=(len(words), d_sub)) * 10.0 ** rng.integers(-6, 6, (len(words), 1))
        vectors[rng.random(vectors.shape) < 0.1] = -0.0
        models.append(DimensionModel(f"m{m}", {w: i for i, w in enumerate(words)}, vectors, d_sub))
    lists = draw(st.lists(st.lists(st.sampled_from(_WORDS + ["oov"]), max_size=12), max_size=6))
    return models, lists


def mean_by_loop(models, tokens):
    """Reference: per model, the sorted in-vocab vectors added one at a time from zero."""
    pieces, hits = [], 0
    for model in models:
        matched = sorted(t for t in tokens if t in model.vocab)
        total = np.zeros(model.d_sub)
        for t in matched:
            total = total + model.vectors[model.vocab[t]]
        pieces.append(total / max(len(matched), 1))
        hits += len(matched)
    return np.concatenate(pieces), hits


class TestEmbedTokenLists:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(models_and_token_lists())
    def test_equal_to_one_list_at_a_time_bit_for_bit(self, case):
        models, lists = case
        values, hits = embed_token_lists(models, lists)
        assert values.shape == (len(lists), content_width(models))
        for row, hit_count, tokens in zip(values, hits, lists):
            want, want_hits = mean_by_loop(models, tokens)
            assert hit_count == want_hits
            assert row.tobytes() == want.tobytes()

    def test_no_models_rejected(self):
        with pytest.raises(ValidationError):
            embed_token_lists([], [["sun"]])


def label_tokens(label):
    """The label's tokens as a graph holds them (KnowledgeGraph.label_tokens)."""
    return KnowledgeGraph([], {"c": label}).label_tokens["c"]


class TestConceptEmbedding:
    """embed_token_lists on a concept's label tokens."""

    def test_unigram_label_equals_embed_text(self):
        model = make_model("m", {"sun": [1.0, 0.0]}, 2)
        values, _ = embed_one([model], label_tokens("Sun"))
        np.testing.assert_array_equal(values, embed_one([model], ["sun"])[0])

    def test_multiword_label_is_token_mean(self):
        model = make_model("m", {"red": [2.0], "fox": [4.0]}, 1)
        values, _ = embed_one([model], label_tokens("Red Fox"))
        np.testing.assert_allclose(values, [3.0])

    def test_out_of_vocab_label_flagged_unresolvable(self):
        model = make_model("m", {"sun": [1.0]}, 1)
        values, hits = embed_one([model], label_tokens("Void"))
        assert hits == 0
        assert not values.any()


class TestKnowledgeEmbedding:
    def test_single_self_pair_is_normalized_embedding(self):
        kg = KnowledgeGraph.from_labeled_triples([("sun", "related", "sun")])
        model = make_model("m", {"sun": [3.0, 4.0]}, 2)
        seeded = n_hop_neighborhood(kg, {"sun"}, 0)
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
        seeded = n_hop_neighborhood(kg, set(kg.concepts), 1)
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
        seeded = n_hop_neighborhood(kg, set(kg.concepts), 1)
        ke = knowledge_embedding(seeded, [model])
        expected = np.array([1.0, 0.5 * 3.0])
        expected /= np.linalg.norm(expected)
        assert ke.pair_count == 2
        np.testing.assert_allclose(ke.values, expected, atol=1e-15)

    def test_empty_allowlist_gives_zero(self):
        kg = KnowledgeGraph.from_labeled_triples([("sun", "related", "sun")])
        model = make_model("m", {"sun": [1.0]}, 1)
        seeded = n_hop_neighborhood(kg, {"sun"}, 0)
        ke = knowledge_embedding(seeded, [model], allowlist=frozenset())
        assert ke.pair_count == 0
        assert not ke.values.any()

    def test_unresolvable_endpoint_skipped(self):
        kg = KnowledgeGraph.from_labeled_triples([("sun", "related", "void")])
        model = make_model("m", {"sun": [1.0]}, 1)
        seeded = n_hop_neighborhood(kg, set(kg.concepts), 1)
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
        seeded = n_hop_neighborhood(kg, set(kg.concepts), 2)
        ke = knowledge_embedding(seeded, [model])
        assert ke.pair_count > 0
        assert abs(np.linalg.norm(ke.values) - 1.0) < 1e-12
        # Doubling every pair weight cannot move the normalized sum.
        doubled = brute_force_ke(seeded, [model], weight_scale=2.0)
        np.testing.assert_allclose(ke.values, doubled, atol=1e-12)


@pytest.mark.parametrize("allowlist", [None, frozenset({"isa"}), frozenset()])
def test_knowledge_embedding_equals_the_per_triple_loop_after_an_update(tmp_path, allowlist):
    cfg = parse_config(generate_benchmark(str(tmp_path), seed=0, epochs=1, iters=1).config)
    pipeline.build(cfg)
    result = pipeline.train(replace(cfg, mode="infused"))
    outcome = pipeline.update_kg(cfg, result.checkpoint_path)
    assert outcome.reason == "updated" and outcome.new_triples > 0
    models = pipeline.load_build(cfg).models
    seeded = pipeline.load_subgraph(cfg)
    ke = knowledge_embedding(seeded, models, allowlist=allowlist)
    want = brute_force_ke(seeded, models, allowlist=allowlist)
    assert ke.values.tobytes() == want.tobytes()
    assert (ke.pair_count > 0) == (allowlist != frozenset())


def brute_force_ke(seeded, models, weight_scale=1.0, allowlist=None):
    """Independent recomputation: explicit loops over triples and labels.

    With weight_scale=1 it does the arithmetic of the per-triple loop
    knowledge_embedding ran before it embedded each concept once: np.mean
    per concept, one pair term at a time into the sum.
    """
    from kginfuse.kg import lcs_distance
    from kginfuse.text import tokenize

    kg = seeded.parent
    total = np.zeros(content_width(models))
    pairs = 0
    for t in sorted(seeded.triples):
        if allowlist is not None and t.predicate not in allowlist:
            continue
        vecs = []
        ok = True
        for cid in (t.subject, t.object):
            label_tokens = sorted(
                tok for tok in tokenize(kg.concepts[cid])
                if any(tok in m.vocab for m in models)
            )
            pieces = []
            any_hit = False
            for m in models:
                hits = [m.vectors[m.vocab[tok]] for tok in sorted(tokenize(kg.concepts[cid])) if tok in m.vocab]
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
