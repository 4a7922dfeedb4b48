"""Differential knowledge engine: proximity retrieval, the differential
subgraph, the semantic mapping solver, and seeded-subgraph evolution.

The engine runs after evaluation: concepts mentioned by misclassified
examples are expanded to their hop-neighborhood, and the triples not
already in the seeded subgraph form the differential subgraph, which the
seeded one absorbs: its triples and depths are merged in, and the
knowledge embedding is computed from the result. A ridge-regularized
linear map between the seeded and the new concepts' embedding columns
diagnoses how far the new concepts sit from the seeded ones.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from .embedding import embed_concepts
from .errors import SolverError, UnknownConceptError, ValidationError
from .kg import KnowledgeGraph, SubKG, n_hop_neighborhood

log = logging.getLogger(__name__)


@dataclass
class DifferentialSubKG:
    """Triples retrieved around misclassified data minus the seeded set.

    embedding_matrix holds one unit-norm column per resolvable concept
    that appears only in the difference, ordered by new_concepts (sorted
    ids); frontier_depth carries those concepts' retrieval depths.
    """

    triples: frozenset
    embedding_matrix: np.ndarray
    new_concepts: tuple
    frontier_depth: dict


@dataclass
class MappingSolution:
    """Solution of the two-space stationarity system."""

    w: np.ndarray
    residual: float
    imbalance: float


def knowledge_proximity(kg: KnowledgeGraph, datapoint_concepts, hops: int) -> SubKG:
    """Hop-neighborhood around the concepts mentioned by a data point.

    Unknown concepts are skipped with a warning; it is an error only when
    none of them exist in the graph.
    """
    if hops < 1:
        raise ValidationError("proximity hops must be >= 1")
    concepts = set(datapoint_concepts)
    if not concepts:
        raise ValidationError("no concepts to retrieve around")
    known = {c for c in concepts if c in kg.concepts}
    unknown = concepts - known
    if unknown:
        log.warning("skipping unknown concepts: %s", ", ".join(sorted(unknown)))
    if not known:
        raise UnknownConceptError(unknown)
    return n_hop_neighborhood(kg, known, hops)


def differential_subkg(retrieved: SubKG, seeded: SubKG, models) -> DifferentialSubKG:
    """Set difference of the retrieved subgraph against the seeded one.

    An empty difference is valid and signals there is nothing to learn.
    """
    if retrieved.parent is not seeded.parent:
        raise ValidationError("retrieved and seeded subgraphs have different parents")
    diff_triples = frozenset(retrieved.triples - seeded.triples)
    seeded_concepts = seeded.concepts()
    new_concepts = sorted(
        {c for t in diff_triples for c in (t.subject, t.object)} - seeded_concepts
    )
    matrix, resolvable = embed_concepts(retrieved.parent, new_concepts, models)
    depths = {c: retrieved.frontier_depth[c] for c in new_concepts}
    return DifferentialSubKG(
        triples=diff_triples,
        embedding_matrix=matrix,
        new_concepts=resolvable,
        frontier_depth=depths,
    )


def solve_mapping(seeded_matrix: np.ndarray, diff_matrix: np.ndarray,
                  alpha: float, ridge: float) -> MappingSolution:
    """Solve the ridge-stabilized two-space stationarity system.

    The differential columns are first aligned to their nearest seeded
    columns by cosine, giving conformable d x k' matrices S and D. W then
    satisfies W (alpha S S^T - D D^T + ridge I) = alpha D S^T - S D^T,
    and the reported residual is the Frobenius norm of that equation's
    defect. The unregularized two-sided imbalance, the absolute value of
    |S - W D|^2 - alpha |W S - D|^2, is reported as a diagnostic, not
    enforced: 0 when both sides balance, larger the further apart they are.
    W is reported with the two diagnostics, not applied: the absorbing
    update (update_seeded) merges only triples and depths.
    """
    if alpha <= 0:
        raise ValidationError("alpha must be positive")
    if ridge < 0:
        raise ValidationError("ridge must be nonnegative")
    s, d = _align_columns(seeded_matrix, diff_matrix)
    dim = s.shape[0]
    lhs = alpha * (s @ s.T) - d @ d.T + ridge * np.eye(dim)
    rhs = alpha * (d @ s.T) - s @ d.T
    try:
        w = np.linalg.solve(lhs.T, rhs.T).T
    except np.linalg.LinAlgError as exc:
        raise SolverError(
            f"singular mapping system ({exc}); raise the ridge regularizer"
        ) from exc
    if not np.all(np.isfinite(w)):
        raise SolverError("non-finite mapping solution; raise the ridge regularizer")
    residual = float(np.linalg.norm(w @ lhs - rhs))
    imbalance = float(abs(
        np.linalg.norm(s - w @ d) ** 2 - alpha * np.linalg.norm(w @ s - d) ** 2
    ))
    return MappingSolution(w=w, residual=residual, imbalance=imbalance)


def _align_columns(seeded_matrix: np.ndarray, diff_matrix: np.ndarray):
    """Pair each differential column with its cosine-nearest seeded column."""
    if seeded_matrix.ndim != 2 or diff_matrix.ndim != 2:
        raise ValidationError("embedding matrices must be 2-d")
    if seeded_matrix.shape[0] != diff_matrix.shape[0]:
        raise ValidationError("embedding widths differ")
    if seeded_matrix.shape[1] == 0 or diff_matrix.shape[1] == 0:
        raise ValidationError("embedding matrices must be nonempty")
    s_norms = np.linalg.norm(seeded_matrix, axis=0)
    d_norms = np.linalg.norm(diff_matrix, axis=0)
    sims = (seeded_matrix.T @ diff_matrix) / np.outer(
        np.maximum(s_norms, 1e-300), np.maximum(d_norms, 1e-300)
    )
    nearest = np.argmax(sims, axis=0)
    return seeded_matrix[:, nearest], diff_matrix


def update_seeded(seeded: SubKG, diff: DifferentialSubKG) -> SubKG:
    """Absorb the differential subgraph into the seeded one: the union of
    their triples, each concept at its seeded depth if it has one and at
    its retrieval depth otherwise. With an empty difference this is a
    no-op.
    """
    if not diff.triples:
        return seeded
    merged_depth = dict(diff.frontier_depth)
    merged_depth.update(seeded.frontier_depth)
    return SubKG(parent=seeded.parent, triples=frozenset(seeded.triples | diff.triples),
                 frontier_depth=merged_depth)
