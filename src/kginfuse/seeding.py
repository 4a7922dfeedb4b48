"""Corpus-driven selection of the seeded subgraph.

Concepts are scored against a labeled corpus by their pointwise KL
contribution (add-1 smoothed target-class probability vs. whole-corpus
probability), and the top-scoring ones seed an n-hop expansion. Those
scores are the only relevance scale, and every one is kept, so a concept
the differential knowledge engine absorbs later already has its score.
The subgraph is its triples and hop depths; a concept's vector is
embedded from its label (embedding.embed_concepts) where it is needed.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .errors import ValidationError
from .kg import KnowledgeGraph, SubKG, n_hop_neighborhood
from .text import tokenize_all


@dataclass
class CorpusStats:
    """Token counts of a labeled corpus, per class and overall."""

    class_token_counts: dict[str, Counter]
    class_totals: dict[str, int]
    vocab: frozenset[str]

    @property
    def total_tokens(self) -> int:
        return sum(self.class_totals.values())

    def overall_count(self, token: str) -> int:
        return sum(counts[token] for counts in self.class_token_counts.values())


@dataclass
class SeededSubKG:
    """The seeded subgraph with seeding's relevance scores.

    relevance holds seeding's score of every graph concept whose label
    tokens all occur in the training set, inside the subgraph or not; a
    concept with no entry has no score.
    """

    subkg: SubKG
    relevance: dict[str, float]


def corpus_stats(dataset) -> CorpusStats:
    """Tokenized per-class counts for a list of (label, text) pairs; the
    texts are tokenized in one tokenize_all pass."""
    dataset = list(dataset)
    if not dataset:
        raise ValidationError("dataset is empty")
    class_counts: dict[str, Counter] = {}
    for (label, _), tokens in zip(dataset, tokenize_all([text for _, text in dataset])):
        class_counts.setdefault(label, Counter()).update(tokens)
    totals = {label: sum(c.values()) for label, c in class_counts.items()}
    vocab = frozenset().union(*class_counts.values())
    return CorpusStats(class_counts, totals, vocab)


def relevance_score(tokens, stats: CorpusStats, target_class: str) -> float:
    """Pointwise KL contribution of a concept's label tokens, in nats.

    tokens are the label's tokens as KnowledgeGraph.label_tokens holds
    them. Per token, p is the add-1 smoothed probability in the target
    class and q the smoothed probability over all documents; the score
    is the sum of p*ln(p/q). Smoothing keeps unseen tokens finite.
    """
    term = _kl_term(stats, target_class)
    if not tokens:
        raise ValidationError("concept label has no tokens")
    return _summed_terms(tokens, term)


def _kl_term(stats: CorpusStats, target_class: str):
    """The function token -> p*ln(p/q) that relevance_score sums, with the
    class totals summed once."""
    if target_class not in stats.class_token_counts:
        raise ValidationError(f"unknown target class: {target_class!r}")
    total = stats.total_tokens
    if total == 0:
        raise ValidationError("corpus has no tokens")
    vocab_size = len(stats.vocab)
    target_counts = stats.class_token_counts[target_class]
    target_denominator = stats.class_totals[target_class] + vocab_size
    overall_denominator = total + vocab_size

    def term(token: str) -> float:
        p = (target_counts[token] + 1.0) / target_denominator
        q = (stats.overall_count(token) + 1.0) / overall_denominator
        return p * math.log(p / q)
    return term


def _summed_terms(tokens, term) -> float:
    """term(token) summed over tokens one after another from 0.0."""
    score = 0.0
    for token in tokens:
        score += term(token)
    return score


def extract_seeded_subkg(kg: KnowledgeGraph, stats: CorpusStats, target_class: str,
                         hops: int, top_m: int) -> SeededSubKG:
    """Score, seed and expand.

    Every concept whose label tokens all occur in the corpus is scored
    by relevance_score's sum: each distinct token's term is computed
    once and added, in label order, wherever it occurs. The top_m scores
    (ties at the boundary included) become seeds and are expanded to
    their hop-neighborhood; every score is kept as the relevance. Ties
    are broken by concept id, so the result is independent of document
    order.
    """
    if top_m < 1:
        raise ValidationError("top_m must be >= 1")
    if hops < 0:
        raise ValidationError("hops must be >= 0")
    label_tokens = kg.label_tokens
    scored = [cid for cid in sorted(kg.concepts)
              if label_tokens[cid] and stats.vocab.issuperset(label_tokens[cid])]
    if not scored:
        raise ValidationError("no concept label matches the corpus vocabulary")
    term = _kl_term(stats, target_class)
    terms = {token: term(token) for token in {t for cid in scored for t in label_tokens[cid]}}
    scores = {cid: _summed_terms(label_tokens[cid], terms.__getitem__) for cid in scored}

    ranked = sorted(scores.items(), key=lambda item: (-item[1], item[0]))
    cutoff = ranked[min(top_m, len(ranked)) - 1][1]
    seeds = sorted(cid for cid, s in ranked if s >= cutoff)

    return SeededSubKG(subkg=n_hop_neighborhood(kg, seeds, hops), relevance=scores)
