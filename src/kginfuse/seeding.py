"""Corpus-driven selection of the seeded subgraph.

Concepts are scored against a labeled corpus by their pointwise KL
contribution (add-1 smoothed target-class probability vs. whole-corpus
probability), the top-scoring ones seed an n-hop expansion, and the
expanded subgraph is embedded into a concept matrix.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .embedding import embed_concepts
from .errors import ValidationError
from .kg import KnowledgeGraph, SubKG, n_hop_neighborhood
from .text import tokenize


@dataclass
class CorpusStats:
    """Token counts of a labeled corpus, per class and overall."""

    class_token_counts: dict[str, Counter]
    class_totals: dict[str, int]
    doc_frequency: Counter
    vocab: frozenset[str]

    @property
    def total_tokens(self) -> int:
        return sum(self.class_totals.values())

    def overall_count(self, token: str) -> int:
        return sum(counts[token] for counts in self.class_token_counts.values())


@dataclass
class SeededSubKG:
    """Relevance-scored subgraph plus its concept-embedding matrix.

    embedding_matrix has one unit-norm column per resolvable concept,
    ordered by embedded_concepts (sorted concept ids).
    """

    subkg: SubKG
    relevance: dict[str, float]
    embedding_matrix: np.ndarray
    embedded_concepts: tuple[str, ...] = field(default_factory=tuple)

    @property
    def seeds(self) -> set[str]:
        return {c for c, d in self.subkg.frontier_depth.items() if d == 0}


def corpus_stats(dataset) -> CorpusStats:
    """Tokenized per-class counts for a list of (label, text) pairs."""
    dataset = list(dataset)
    if not dataset:
        raise ValidationError("dataset is empty")
    class_counts: dict[str, Counter] = {}
    doc_frequency: Counter = Counter()
    for label, text in dataset:
        tokens = tokenize(text)
        counts = class_counts.setdefault(label, Counter())
        counts.update(tokens)
        doc_frequency.update(set(tokens))
    totals = {label: sum(c.values()) for label, c in class_counts.items()}
    vocab = frozenset(doc_frequency)
    return CorpusStats(class_counts, totals, doc_frequency, vocab)


def relevance_score(concept, stats: CorpusStats, target_class: str) -> float:
    """Pointwise KL contribution of the concept's label tokens, in nats.

    Per token, p is the add-1 smoothed probability in the target class
    and q the smoothed probability over all documents; the score is the
    sum of p*ln(p/q). Smoothing keeps unseen tokens finite.
    """
    if target_class not in stats.class_token_counts:
        raise ValidationError(f"unknown target class: {target_class!r}")
    if stats.total_tokens == 0:
        raise ValidationError("corpus has no tokens")
    tokens = tokenize(concept.label)
    if not tokens:
        raise ValidationError(f"concept label has no tokens: {concept.label!r}")
    vocab_size = len(stats.vocab)
    target_counts = stats.class_token_counts[target_class]
    target_total = stats.class_totals[target_class]
    score = 0.0
    for token in tokens:
        p = (target_counts[token] + 1.0) / (target_total + vocab_size)
        q = (stats.overall_count(token) + 1.0) / (stats.total_tokens + vocab_size)
        score += p * math.log(p / q)
    return score


def extract_seeded_subkg(kg: KnowledgeGraph, stats: CorpusStats, target_class: str,
                         hops: int, top_m: int, models) -> SeededSubKG:
    """Score, seed, expand, and embed.

    Every concept whose label tokens all occur in the corpus is scored;
    the top_m scores (ties at the boundary included) become seeds and
    are expanded to their hop-neighborhood. Ties and column order are
    broken by concept id, so the result is independent of document
    order.
    """
    if top_m < 1:
        raise ValidationError("top_m must be >= 1")
    if hops < 0:
        raise ValidationError("hops must be >= 0")
    scores: dict[str, float] = {}
    for cid in sorted(kg.concepts):
        concept = kg.concepts[cid]
        tokens = tokenize(concept.label)
        if tokens and all(t in stats.vocab for t in tokens):
            scores[cid] = relevance_score(concept, stats, target_class)
    if not scores:
        raise ValidationError("no concept label matches the corpus vocabulary")

    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    cutoff = ranked[min(top_m, len(ranked)) - 1][1]
    seeds = sorted(cid for cid, s in ranked if s >= cutoff)

    subkg = n_hop_neighborhood(kg, seeds, hops)
    matrix, embedded = embed_concepts(kg, sorted(subkg.frontier_depth), models)
    relevance = {cid: scores[cid] for cid in subkg.frontier_depth if cid in scores}
    return SeededSubKG(
        subkg=subkg,
        relevance=relevance,
        embedding_matrix=matrix,
        embedded_concepts=embedded,
    )
