"""Distributional embeddings and the knowledge-embedding construction.

Per contextual dimension, a model is trained on its own corpus: the
symmetric positive-PMI (PPMI) matrix of its co-occurrence counts is
factorized by a symmetric eigendecomposition that keeps the d_sub
eigenpairs of largest |eigenvalue| (the positive one first on a tie),
which is the truncated SVD of that matrix. An eigenvalue of multiplicity
> 1 has no unique basis, but the basis returned is the same from run to
run. A corpus is tokenized in one pass, and its co-occurrence is kept as
distinct (pair id, count) arrays: PPMI is formed only at co-occurring
pairs, so the one |vocab| x |vocab| array is the eigendecomposition's
input. A piece of content is embedded per dimension and the sub-vectors
are concatenated. Token lists are embedded in one batch, so each concept
is embedded once per call: one lexsort puts every list's tokens in
sorted order and one np.add.at per model adds them in that order, the
summation order of one np.mean per concept. A concept's tokens are read
from kg.KnowledgeGraph.label_tokens, the one tokenization of its label.
The knowledge embedding summarizes a seeded subgraph's triples as one
vector in the same concatenated space: a distance-weighted sum over
concept pairs, each concept embedded from its label, L2-normalized.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ValidationError
from .kg import lcs_distance
from .text import tokenize_all

log = logging.getLogger(__name__)


@dataclass
class DimensionModel:
    """One contextual dimension: vocab plus a |vocab| x d_sub vector table."""

    dimension_name: str
    vocab: dict[str, int]
    vectors: np.ndarray
    d_sub: int


@dataclass
class KnowledgeEmbedding:
    values: np.ndarray
    pair_count: int


def content_width(models) -> int:
    return sum(m.d_sub for m in models)


def train_dimension_model(corpus, d_sub: int, window: int,
                          dimension_name: str = "default") -> DimensionModel:
    """Train one dimension model on a corpus of documents.

    Symmetric co-occurrence counts within +/-window, kept per distinct
    token pair, positive PMI at those pairs, then the d_sub eigenpairs of
    the symmetric PPMI matrix with the largest |eigenvalue|, each
    eigenvector scaled by sqrt(|eigenvalue|) and given a fixed sign
    convention. A symmetric matrix's singular values are its
    |eigenvalues| and its singular vectors its eigenvectors, so this is
    the truncated SVD, computed exactly. Of two eigenvalues of equal
    magnitude the positive one is kept first. An eigenvalue of
    multiplicity > 1 has no unique basis of eigenvectors; which basis is
    returned depends on the LAPACK build, but it is the same from run to
    run. Nothing is random, so the model is a function of the corpus.
    The documents are tokenized by one tokenize_all pass and mapped to
    token ids by one np.fromiter; the PPMI matrix handed to eigh is the
    only |vocab| x |vocab| array.
    """
    if d_sub < 1:
        raise ValidationError("d_sub must be >= 1")
    if window < 1:
        raise ValidationError("window must be >= 1")
    vocab, ids, lengths = _token_ids(corpus)
    if not vocab:
        raise ValidationError("corpus has no tokens")
    if d_sub > len(vocab):
        raise ValidationError(f"d_sub={d_sub} exceeds vocabulary size {len(vocab)}")
    ppmi = _ppmi_matrix(*_cooccurrence_pairs(ids, lengths, len(vocab), window), len(vocab))
    w, v = np.linalg.eigh(ppmi)
    top = np.lexsort((-w, -np.abs(w)))[:d_sub]
    vectors = _fix_signs(v[:, top]) * np.sqrt(np.abs(w[top]))
    return DimensionModel(
        dimension_name=dimension_name,
        vocab=vocab,
        vectors=vectors,
        d_sub=d_sub,
    )


def _token_ids(corpus) -> tuple[dict[str, int], np.ndarray, np.ndarray]:
    """(vocab, ids, lengths) of a corpus: each token's id, its rank in
    sorted order; all documents' token ids laid end to end; and each
    document's token count."""
    docs = tokenize_all(list(corpus))
    vocab = {tok: i for i, tok in enumerate(sorted(set(chain.from_iterable(docs))))}
    lengths = np.fromiter(map(len, docs), dtype=np.intp, count=len(docs))
    ids = np.fromiter(map(vocab.__getitem__, chain.from_iterable(docs)), dtype=np.int64,
                      count=int(lengths.sum()))
    return vocab, ids, lengths


def _cooccurrence_pairs(ids: np.ndarray, lengths: np.ndarray, n: int,
                        window: int) -> tuple[np.ndarray, np.ndarray]:
    """Distinct flat pair ids id_i * n + id_j of token ids at most window
    apart in one document, ascending, and each pair's float count.

    ids holds all documents laid end to end, lengths their token counts.
    Each pair of positions i != j with |i - j| <= window counts once for
    [id_i, id_j] and once for [id_j, id_i]. For each offset, the pairs
    whose two positions lie in the same document are taken at once.
    """
    doc_of = np.repeat(np.arange(len(lengths)), lengths)
    longest = int(lengths.max(initial=0))
    pair_ids = [np.empty(0, dtype=np.int64)]
    for k in range(1, min(window, longest - 1) + 1):
        same = doc_of[k:] == doc_of[:-k]
        a, b = ids[:-k][same], ids[k:][same]
        pair_ids += [a * n + b, b * n + a]
    pairs, counts = np.unique(np.concatenate(pair_ids), return_counts=True)
    return pairs, counts.astype(float)


def _ppmi_matrix(pairs: np.ndarray, counts: np.ndarray, n: int) -> np.ndarray:
    """n x n PPMI matrix of the co-occurrence pair counts.

    Entry [i, j] of a co-occurring pair is max(0, log(c * total / (row_i *
    col_j))), the operations the dense matrix formula performs on that
    entry, so it is the same float; every other entry is 0.0. The counts
    are symmetric, so a token's row and column margins are one sum.
    """
    rows, cols = np.divmod(pairs, n)
    margins = np.bincount(rows, weights=counts, minlength=n)
    ppmi = np.zeros((n, n))
    ppmi.flat[pairs] = np.maximum(
        np.log(counts * counts.sum() / (margins[rows] * margins[cols])), 0.0)
    return ppmi


def _fix_signs(u: np.ndarray) -> np.ndarray:
    """Flip each column so its largest-magnitude entry is positive."""
    out = u.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        pivot = int(np.argmax(np.abs(col)))
        if col[pivot] < 0:
            out[:, j] = -col
    return out


def embed_token_lists(models, token_lists) -> tuple[np.ndarray, np.ndarray]:
    """Bag-of-words mean per dimension of each token list, concatenated in model order.

    Returns (values, hits): one row of width content_width(models) per
    list, and per list the number of in-vocab tokens summed over all
    models. A hit count of zero means the list resolved against no
    dimension, and its row is all zeros. Per model, each list's in-vocab
    tokens are added in sorted order, one after another from zero, and
    the sum is divided by their count, so a row is exactly invariant
    under permutations of its list. For a model of two or more columns
    this is the sum np.mean makes of the same vectors; along a single
    column of more than eight vectors NumPy sums pairwise instead.

    All lists are handled in one pass: each distinct token is ranked in
    string order and looked up once per model, one lexsort orders every
    (list, token rank) pair, and one np.add.at per model adds the vectors
    in that order, which is each list's sorted order.
    """
    if not models:
        raise ValidationError("at least one dimension model is required")
    n = len(token_lists)
    if n == 0:
        return np.zeros((0, content_width(models))), np.zeros(0, dtype=np.int64)
    flat = [t for tokens in token_lists for t in tokens]
    distinct = sorted(set(flat))
    rank = {t: i for i, t in enumerate(distinct)}
    ranks = np.fromiter(map(rank.__getitem__, flat), dtype=np.intp, count=len(flat))
    owners = np.repeat(np.arange(n), [len(tokens) for tokens in token_lists])
    order = np.lexsort((ranks, owners))
    ranks, owners = ranks[order], owners[order]
    pieces = []
    hits = np.zeros(n, dtype=np.int64)
    for model in models:
        rows = np.fromiter((model.vocab.get(t, -1) for t in distinct), dtype=np.intp,
                           count=len(distinct))[ranks]
        known = rows >= 0
        sums = np.zeros((n, model.d_sub))
        np.add.at(sums, owners[known], model.vectors[rows[known]])
        counts = np.bincount(owners[known], minlength=n)
        pieces.append(sums / np.maximum(counts, 1)[:, None])
        hits += counts
    return np.concatenate(pieces, axis=1), hits


def embed_concepts(kg, concept_ids, models) -> tuple[np.ndarray, tuple[str, ...]]:
    """Unit-norm embedding columns for the resolvable concepts among
    concept_ids, in the given order; returns (matrix, embedded ids).

    Each concept is embedded once, from its label tokens; a concept
    whose tokens resolve against no dimension is left out. A row's norm
    is sqrt(row.dot(row)), what np.linalg.norm computes for it, taken as
    one dot product per row, and all rows are divided by their norms at
    once.
    """
    concept_ids = list(concept_ids)
    values, hits = embed_token_lists(models, [kg.label_tokens[c] for c in concept_ids])
    norms = np.sqrt(np.matmul(values[:, None, :], values[:, :, None])[:, 0, 0])
    keep = np.flatnonzero((hits > 0) & (norms != 0.0))
    matrix = np.ascontiguousarray((values[keep] / norms[keep, None]).T)
    return matrix, tuple(concept_ids[i] for i in keep)


def knowledge_embedding(subkg, models, allowlist=None) -> KnowledgeEmbedding:
    """Single-vector summary of a seeded subgraph (a kg.SubKG) by
    distance-weighted concept pairs.

    For every triple whose predicate passes the allowlist and whose
    endpoints both resolve, the pair contributes the elementwise mean of
    the two concept embeddings, weighted by 1/(1 + taxonomy distance).
    A pair whose concepts share no taxonomy ancestor gets weight 1/2: its
    concepts are the endpoints of one triple, so they are adjacent (a
    concept is its own ancestor, so a self-pair always has distance 0).
    Each endpoint concept is embedded once, and the pair terms are added
    in sorted-triple order. The weighted sum is L2-normalized.

    allowlist=None admits every predicate; an empty set admits none.
    """
    if not subkg.triples:
        raise ValidationError("seeded subgraph has no triples")
    kg = subkg.parent
    width = content_width(models)
    triples = [t for t in subkg.sorted_triples
               if allowlist is None or t.predicate in allowlist]
    ids = sorted({c for t in triples for c in (t.subject, t.object)})
    row = {cid: i for i, cid in enumerate(ids)}
    values, hits = embed_token_lists(models, [kg.label_tokens[c] for c in ids])
    subjects = np.array([row[t.subject] for t in triples], dtype=np.intp)
    objects = np.array([row[t.object] for t in triples], dtype=np.intp)
    resolved = np.flatnonzero((hits[subjects] > 0) & (hits[objects] > 0))
    subjects, objects = subjects[resolved], objects[resolved]
    pairs = [triples[i] for i in resolved.tolist()]
    dists = [lcs_distance(kg, t.subject, t.object) for t in pairs]
    weights = 1.0 / (1.0 + np.array([1 if d is None else d for d in dists], dtype=float))
    terms = (weights * 0.5)[:, None] * (values[subjects] + values[objects])
    acc = np.zeros((1, width))
    np.add.at(acc, np.zeros(len(pairs), dtype=np.intp), terms)  # one after another, in order
    norm = float(np.linalg.norm(acc[0]))
    if not pairs or norm == 0.0:
        log.warning("knowledge embedding is empty: no resolvable concept pair")
        return KnowledgeEmbedding(values=np.zeros(width), pair_count=0)
    return KnowledgeEmbedding(values=acc[0] / norm, pair_count=len(pairs))
