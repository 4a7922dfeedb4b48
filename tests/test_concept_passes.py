"""The whole-array concept passes of update-kg and build against the
one-concept-at-a-time code they replaced, kept here as references.

embed_token_lists, embed_concepts, knowledge_embedding (with its per-pair
lcs_distance loop), dke.update_seeded and pipeline._save_seeded must give
the same bits as their references, and an absorbing update the same bytes.
"""

import importlib
import os
import shutil
from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kginfuse import pipeline
from kginfuse.config import parse_config
from kginfuse.dke import DifferentialSubKG, update_seeded
from kginfuse.embedding import (
    DimensionModel,
    KnowledgeEmbedding,
    content_width,
    embed_concepts,
    embed_token_lists,
    knowledge_embedding,
)
from kginfuse.errors import UnknownConceptError, ValidationError
from kginfuse.kg import KnowledgeGraph, SubKG, Triple, lcs_distance, n_hop_neighborhood
from kginfuse.synth import generate_benchmark
from kginfuse.text import tokenize

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")


# ---------------------------------------------------------------------------
# references: the code the passes replaced


def reference_embed_token_lists(models, token_lists):
    if not models:
        raise ValidationError("at least one dimension model is required")
    n = len(token_lists)
    pieces = []
    hits = np.zeros(n, dtype=np.int64)
    for model in models:
        owners, rows = [], []
        for i, tokens in enumerate(token_lists):
            matched = sorted(t for t in tokens if t in model.vocab)
            owners += [i] * len(matched)
            rows += [model.vocab[t] for t in matched]
        owners = np.asarray(owners, dtype=np.intp)
        sums = np.zeros((n, model.d_sub))
        np.add.at(sums, owners, model.vectors[np.asarray(rows, dtype=np.intp)])
        counts = np.bincount(owners, minlength=n)
        pieces.append(sums / np.maximum(counts, 1)[:, None])
        hits += counts
    return np.concatenate(pieces, axis=1), hits


def reference_embed_concepts(kg, concept_ids, models):
    concept_ids = list(concept_ids)
    values, hits = reference_embed_token_lists(
        models, [tuple(tokenize(kg.concepts[c])) for c in concept_ids])
    columns = []
    embedded = []
    for cid, row, hit_count in zip(concept_ids, values, hits):
        norm = float(np.linalg.norm(row))
        if hit_count == 0 or norm == 0.0:
            continue
        columns.append(row / norm)
        embedded.append(cid)
    matrix = np.stack(columns, axis=1) if columns else np.zeros((content_width(models), 0))
    return matrix, tuple(embedded)


def reference_lcs_distance(kg, a, b):
    def depths_of(start):
        depths = {start: 0}
        queue = deque([start])
        while queue:
            node = queue.popleft()
            for parent in kg._parents[node]:
                if parent not in depths:
                    depths[parent] = depths[node] + 1
                    queue.append(parent)
        return depths

    for cid in (a, b):
        if cid not in kg.concepts:
            raise UnknownConceptError(cid)
    da, db = depths_of(a), depths_of(b)
    common = da.keys() & db.keys()
    if not common:
        return None
    return min(da[c] + db[c] for c in common)


def reference_knowledge_embedding(subkg, models, allowlist=None):
    if not subkg.triples:
        raise ValidationError("seeded subgraph has no triples")
    kg = subkg.parent
    width = content_width(models)
    triples = [t for t in sorted(subkg.triples)
               if allowlist is None or t.predicate in allowlist]
    ids = sorted({c for t in triples for c in (t.subject, t.object)})
    row = {cid: i for i, cid in enumerate(ids)}
    values, hits = reference_embed_token_lists(models,
                                               [tuple(tokenize(kg.concepts[c])) for c in ids])
    pairs = [t for t in triples if hits[row[t.subject]] and hits[row[t.object]]]
    dists = [reference_lcs_distance(kg, t.subject, t.object) for t in pairs]
    weights = 1.0 / (1.0 + np.array([1 if d is None else d for d in dists], dtype=float))
    subjects = np.array([row[t.subject] for t in pairs], dtype=np.intp)
    objects = np.array([row[t.object] for t in pairs], dtype=np.intp)
    terms = (weights * 0.5)[:, None] * (values[subjects] + values[objects])
    acc = np.zeros((1, width))
    np.add.at(acc, np.zeros(len(pairs), dtype=np.intp), terms)
    norm = float(np.linalg.norm(acc[0]))
    if not pairs or norm == 0.0:
        return KnowledgeEmbedding(values=np.zeros(width), pair_count=0)
    return KnowledgeEmbedding(values=acc[0] / norm, pair_count=len(pairs))


def reference_update_seeded(seeded, diff):
    if not diff.triples:
        return seeded
    depth = {}
    for cid, d in list(seeded.frontier_depth.items()) + list(diff.frontier_depth.items()):
        depth.setdefault(cid, d)
    return SubKG(parent=seeded.parent, triples=frozenset(seeded.triples | diff.triples),
                 frontier_depth=depth)


def reference_save_seeded(paths, subkg):
    def write_rows(path, rows):
        pipeline.atomic_write_text(
            path, "".join("\t".join(map(str, row)) + "\n" for row in rows))

    label = subkg.parent.concepts
    write_rows(paths["subkg_triples"], ((label[t.subject], t.predicate, label[t.object])
                                        for t in sorted(subkg.triples)))
    write_rows(paths["subkg_depths"], sorted(subkg.frontier_depth.items()))


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# strategies

# ASCII, accented, decomposed, Greek (final sigma), CJK and a German sharp s.
_TOKENS = ["ash", "birch", "cedar", "élan", "ét", "σας", "日本", "straße", "z"]


@st.composite
def token_models(draw, min_models=1):
    """1-3 models over parts of _TOKENS, d_sub from 1 to 3; the second model
    knows "z" alone when drawn with two models, so "z" can be known to only
    one of two models. Some vectors hold -0.0 or values of wide range."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = []
    for m in range(draw(st.integers(min_models, 3))):
        words = sorted(draw(st.sets(st.sampled_from(_TOKENS[:-1]))))
        if m == 1:
            words = ["z"]
        d_sub = draw(st.integers(1, 3))
        vectors = rng.normal(size=(len(words), d_sub)) * 10.0 ** rng.integers(-6, 6, (len(words), 1))
        vectors[rng.random(vectors.shape) < 0.1] = -0.0
        models.append(DimensionModel(f"m{m}", {w: i for i, w in enumerate(words)}, vectors, d_sub))
    return models


token_lists = st.lists(st.lists(st.sampled_from(_TOKENS + ["oov", "ΣΑΣ"]), max_size=10),
                       max_size=8)


@st.composite
def graphs(draw):
    """A graph over labels drawn from _TOKENS (one or two words, some with
    punctuation or capitals), with "isa" edges from later to earlier
    concepts only, so the taxonomy is a DAG, and "rel" edges anywhere."""
    words = _TOKENS + ["oov", "ΣΑΣ"]
    n = draw(st.integers(1, 8))
    labels = []
    for _ in range(n):
        label = " ".join(draw(st.lists(st.sampled_from(words), min_size=1, max_size=2)))
        labels.append(draw(st.sampled_from([label, label.upper(), label + "!"])) + f" {len(labels)}")
    rows = []
    for _ in range(draw(st.integers(1, 14))):
        i = draw(st.integers(0, n - 1))
        j = draw(st.integers(0, n - 1))
        if draw(st.booleans()) and i != j:
            rows.append((labels[max(i, j)], "isa", labels[min(i, j)]))
        else:
            rows.append((labels[i], "rel", labels[j]))
    return KnowledgeGraph.from_labeled_triples(rows)


# ---------------------------------------------------------------------------
# bit-for-bit against the references


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(token_models(), token_lists)
def test_embed_token_lists_equals_the_reference(models, lists):
    values, hits = embed_token_lists(models, lists)
    want_values, want_hits = reference_embed_token_lists(models, lists)
    assert same_bits(values, want_values)
    assert same_bits(hits, want_hits)


@pytest.mark.parametrize("lists", [[], [[]], [["oov"], []], [["z", "z", "ash", "z"]]])
def test_embed_token_lists_edge_batches_equal_the_reference(lists):
    models = [DimensionModel("a", {"ash": 0}, np.array([[2.0, -0.0]]), 2),
              DimensionModel("b", {"z": 0}, np.array([[3.0]]), 1)]
    values, hits = embed_token_lists(models, lists)
    want_values, want_hits = reference_embed_token_lists(models, lists)
    assert same_bits(values, want_values) and same_bits(hits, want_hits)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs(), token_models(), st.randoms(use_true_random=False))
def test_embed_concepts_equals_the_reference(kg, models, random):
    ids = sorted(kg.concepts)
    random.shuffle(ids)
    ids = ids[:random.randint(0, len(ids))]
    matrix, embedded = embed_concepts(kg, ids, models)
    want_matrix, want_embedded = reference_embed_concepts(kg, ids, models)
    assert embedded == want_embedded
    assert same_bits(matrix, want_matrix)
    assert matrix.flags.c_contiguous


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(graphs(), token_models(), st.sampled_from([None, frozenset({"isa"}), frozenset()]))
def test_knowledge_embedding_equals_the_reference(kg, models, allowlist):
    subkg = n_hop_neighborhood(kg, kg.concepts, 0)
    for a in kg.concepts:
        for b in kg.concepts:
            assert lcs_distance(kg, a, b) == reference_lcs_distance(kg, a, b)
    ke = knowledge_embedding(subkg, models, allowlist=allowlist)
    want = reference_knowledge_embedding(subkg, models, allowlist=allowlist)
    assert ke.pair_count == want.pair_count
    assert same_bits(ke.values, want.values)


def test_lcs_distance_rejects_unknown_concepts_in_argument_order():
    kg = KnowledgeGraph.from_labeled_triples([("a", "isa", "b")])
    for args, missing in ((("x", "a"), "x"), (("a", "y"), "y"), (("x", "y"), "x")):
        with pytest.raises(UnknownConceptError) as caught:
            lcs_distance(kg, *args)
        assert missing in str(caught.value)


@st.composite
def absorptions(draw):
    """A seeded subgraph and a differential one over concepts c0..c9, whose
    new concepts may overlap the seeded ones."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    width = draw(st.integers(1, 13))
    names = [f"c{i}" for i in range(10)]
    kg = KnowledgeGraph.from_labeled_triples([(a, "rel", b) for a, b in zip(names, names[1:])])
    triples = sorted(kg.triples)
    old = draw(st.lists(st.sampled_from(names), max_size=6))
    new = draw(st.lists(st.sampled_from(names), max_size=8, unique=True))
    seeded = SubKG(kg, frozenset(triples[:3]), {c: int(d) for c, d in
                                                zip(old, rng.integers(0, 3, len(old)))})
    diff = DifferentialSubKG(
        frozenset(triples[draw(st.integers(0, len(triples) - 1)):]),
        rng.normal(size=(width, len(new))),
        tuple(new),
        {c: int(d) for c, d in zip(new, rng.integers(0, 3, len(new)))},
    )
    return seeded, diff


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(absorptions())
def test_update_seeded_equals_the_reference(case):
    seeded, diff = case
    got = update_seeded(seeded, diff)
    want = reference_update_seeded(seeded, diff)
    assert got.parent is want.parent
    assert got.triples == want.triples
    assert got.frontier_depth == want.frontier_depth


# ---------------------------------------------------------------------------
# one absorbing update, end to end


def _synth_project(tmp_path):
    return generate_benchmark(str(tmp_path / "project"), seed=0, epochs=1, iters=1).config


def _wide_graph_project(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(BENCH)
    return importlib.import_module("workloads").generate("wide-graph", str(tmp_path / "project"), 0)


_UPDATED = ("subkg/triples.tsv", "subkg/scores.tsv", "subkg/depths.tsv", "knowledge/ke.kign",
            "knowledge/ke.json", "update_audit.log")


@pytest.mark.parametrize("project", [_synth_project, _wide_graph_project])
def test_absorbing_update_writes_the_bytes_of_the_reference_functions(tmp_path, monkeypatch,
                                                                       project):
    args = (tmp_path, monkeypatch) if project is _wide_graph_project else (tmp_path,)
    cfg = parse_config(project(*args))
    pipeline.build(cfg)
    pipeline.train(replace(cfg, mode="infused"))
    built = pipeline.load_build(cfg)
    outcomes = {}
    for side in ("reference", "new"):
        out = str(tmp_path / side)
        shutil.copytree(cfg.out_dir, out)
        with monkeypatch.context() as patch:
            if side == "reference":
                patch.setattr("kginfuse.dke.embed_concepts", reference_embed_concepts)
                patch.setattr("kginfuse.pipeline.embed_concepts", reference_embed_concepts)
                patch.setattr("kginfuse.dke.update_seeded", reference_update_seeded)
                patch.setattr("kginfuse.pipeline.knowledge_embedding",
                              reference_knowledge_embedding)
                patch.setattr("kginfuse.pipeline._save_seeded", reference_save_seeded)
            outcomes[side] = pipeline.update_kg(replace(cfg, out_dir=out),
                                                os.path.join(out, "model_infused.kicp"))
    assert outcomes["new"] == outcomes["reference"]
    assert outcomes["new"].reason == "updated" and outcomes["new"].new_concepts > 0
    for rel in _UPDATED:
        with open(tmp_path / "reference" / rel, "rb") as want, open(tmp_path / "new" / rel,
                                                                    "rb") as got:
            assert got.read() == want.read(), rel
    # The knowledge embedding is that of the evolved subgraph. On
    # wide-graph the absorbed concepts resolve, so it moves and gains
    # pairs; on synth they have no corpus token and it stays the same.
    new = replace(cfg, out_dir=str(tmp_path / "new"))
    stored = pipeline.load_build(new)
    allow = None if cfg.predicates is None else frozenset(cfg.predicates)
    ke = knowledge_embedding(pipeline.load_subgraph(new), stored.models, allowlist=allow)
    assert same_bits(stored.ke_values, ke.values)
    assert stored.ke_pair_count == ke.pair_count
    if project is _wide_graph_project:
        assert stored.ke_values.tobytes() != built.ke_values.tobytes()
        assert stored.ke_pair_count > built.ke_pair_count
