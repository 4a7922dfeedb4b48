"""Distributional embeddings and the knowledge-embedding construction.

Per contextual dimension, a model is trained on its own corpus (PPMI
co-occurrence counts factorized by truncated SVD); a piece of content is
embedded per dimension and the sub-vectors are concatenated. The
knowledge embedding summarizes a seeded subgraph as one vector in the
same concatenated space: a distance-weighted sum over concept pairs,
L2-normalized.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .kg import Concept, lcs_distance
from .text import normalize_label, tokenize

log = logging.getLogger(__name__)


@dataclass
class DimensionModel:
    """One contextual dimension: vocab plus a |vocab| x d_sub vector table."""

    dimension_name: str
    vocab: dict[str, int]
    vectors: np.ndarray
    d_sub: int
    window: int = 0
    seed: int = 0

    def token_vector(self, token: str):
        idx = self.vocab.get(token)
        return None if idx is None else self.vectors[idx]


@dataclass
class ContentVector:
    """Concatenation of per-dimension mean token vectors.

    hit_count is the number of in-vocab tokens summed over all models;
    zero means the text resolved against no dimension (the vector is
    all zeros in that case).
    """

    values: np.ndarray
    hit_count: int


@dataclass
class KnowledgeEmbedding:
    values: np.ndarray
    pair_count: int


def content_width(models) -> int:
    return sum(m.d_sub for m in models)


def train_dimension_model(corpus, d_sub: int, window: int, seed: int,
                          dimension_name: str = "default") -> DimensionModel:
    """Train one dimension model on a corpus of documents.

    Symmetric co-occurrence counts within +/-window, positive PMI, then
    truncated SVD down to d_sub columns (scaled by sqrt of the singular
    values, with a fixed sign convention). Deterministic for a fixed
    corpus and seed.
    """
    if d_sub < 1:
        raise ValidationError("d_sub must be >= 1")
    if window < 1:
        raise ValidationError("window must be >= 1")
    docs = [tokenize(doc) for doc in corpus]
    vocab_list = sorted({tok for doc in docs for tok in doc})
    if not vocab_list:
        raise ValidationError("corpus has no tokens")
    if d_sub > len(vocab_list):
        raise ValidationError(
            f"d_sub={d_sub} exceeds vocabulary size {len(vocab_list)}"
        )
    vocab = {tok: i for i, tok in enumerate(vocab_list)}
    counts = np.zeros((len(vocab), len(vocab)))
    for doc in docs:
        ids = [vocab[tok] for tok in doc]
        for i, center in enumerate(ids):
            lo = max(0, i - window)
            hi = min(len(ids), i + window + 1)
            for j in range(lo, hi):
                if j != i:
                    counts[center, ids[j]] += 1.0

    ppmi = _positive_pmi(counts)
    u, s, _ = np.linalg.svd(ppmi)
    u = _fix_signs(u[:, :d_sub])
    vectors = u * np.sqrt(s[:d_sub])
    return DimensionModel(
        dimension_name=dimension_name,
        vocab=vocab,
        vectors=vectors,
        d_sub=d_sub,
        window=window,
        seed=seed,
    )


def _positive_pmi(counts: np.ndarray) -> np.ndarray:
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


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = u.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            out[:, j] = -col
    return out


def embed_text(models, text: str) -> ContentVector:
    """Bag-of-words mean per dimension, concatenated in model order.

    In-vocab tokens are summed in sorted order, so the result is exactly
    invariant under permutations of the token multiset.
    """
    if not models:
        raise ValidationError("at least one dimension model is required")
    tokens = tokenize(text)
    pieces = []
    hits = 0
    for model in models:
        matched = sorted(t for t in tokens if t in model.vocab)
        if matched:
            piece = np.mean([model.token_vector(t) for t in matched], axis=0)
            hits += len(matched)
        else:
            piece = np.zeros(model.d_sub)
        pieces.append(piece)
    return ContentVector(values=np.concatenate(pieces), hit_count=hits)


def concept_embedding(models, concept: Concept) -> ContentVector:
    """Embedding of a concept's normalized label.

    A hit_count of zero marks the concept unresolvable; such concepts
    are excluded from subgraph embedding matrices.
    """
    return embed_text(models, normalize_label(concept.label))


def embed_concepts(kg, concept_ids, models) -> tuple[np.ndarray, tuple[str, ...]]:
    """Unit-norm embedding columns for the resolvable concepts among
    concept_ids, in the given order; returns (matrix, embedded ids)."""
    columns = []
    embedded = []
    for cid in concept_ids:
        cv = concept_embedding(models, kg.concepts[cid])
        norm = float(np.linalg.norm(cv.values))
        if cv.hit_count == 0 or norm == 0.0:
            continue
        columns.append(cv.values / norm)
        embedded.append(cid)
    matrix = np.stack(columns, axis=1) if columns else np.zeros((content_width(models), 0))
    return matrix, tuple(embedded)


def knowledge_embedding(seeded, models, allowlist=None) -> KnowledgeEmbedding:
    """Single-vector summary of a seeded subgraph (distance-weighted pairs).

    For every triple whose predicate passes the allowlist and whose
    endpoints both resolve, the pair contributes the elementwise mean of
    the two concept embeddings, weighted by 1/(1 + taxonomy distance).
    A pair whose concepts share no taxonomy ancestor gets weight 1/2: its
    concepts are the endpoints of one triple, so they are adjacent. The
    weighted sum is L2-normalized.

    allowlist=None admits every predicate; an empty set admits none.
    """
    subkg = seeded.subkg
    if not subkg.triples:
        raise ValidationError("seeded subgraph has no triples")
    kg = subkg.parent
    width = content_width(models)
    cache: dict[str, ContentVector] = {}

    def embed(cid: str) -> ContentVector:
        if cid not in cache:
            cache[cid] = concept_embedding(models, kg.concepts[cid])
        return cache[cid]

    acc = np.zeros(width)
    pair_count = 0
    for t in sorted(subkg.triples):
        if allowlist is not None and t.predicate not in allowlist:
            continue
        ei = embed(t.subject)
        ej = embed(t.object)
        if ei.hit_count == 0 or ej.hit_count == 0:
            continue
        dist = lcs_distance(kg, t.subject, t.object)
        if dist is None:
            dist = 0 if t.subject == t.object else 1
        weight = 1.0 / (1.0 + dist)
        acc += weight * 0.5 * (ei.values + ej.values)
        pair_count += 1

    norm = float(np.linalg.norm(acc))
    if pair_count == 0 or norm == 0.0:
        log.warning("knowledge embedding is empty: no resolvable concept pair")
        return KnowledgeEmbedding(values=np.zeros(width), pair_count=0)
    return KnowledgeEmbedding(values=acc / norm, pair_count=pair_count)
