"""Differential knowledge engine: retrieval, difference, mapping, update."""

import numpy as np
import pytest

from kginfuse.dke import (
    differential_subkg,
    knowledge_proximity,
    solve_mapping,
    update_seeded,
)
from kginfuse.embedding import DimensionModel, embed_concepts
from kginfuse.errors import SolverError, UnknownConceptError, ValidationError
from kginfuse.kg import KnowledgeGraph, Triple, n_hop_neighborhood
from kginfuse.seeding import SeededSubKG


def model_for(tokens, d_sub=2, seed=0):
    vocab = {t: i for i, t in enumerate(sorted(tokens))}
    vecs = np.random.default_rng(seed).normal(size=(len(vocab), d_sub))
    return DimensionModel("m", vocab, vecs, d_sub)


def chain_kg(labels, predicate="linked"):
    rows = [(labels[i], predicate, labels[i + 1]) for i in range(len(labels) - 1)]
    return KnowledgeGraph.from_labeled_triples(rows)


def seeded_from(kg, seeds, hops, models):
    sub = n_hop_neighborhood(kg, seeds, hops)
    matrix, embedded = embed_concepts(kg, sorted(sub.concepts()), models)
    relevance = {cid: 1.0 for cid in seeds}
    return SeededSubKG(sub, relevance, matrix, embedded)


def kron_solve(s, d, alpha, ridge):
    """Independent dense solve of W (alpha S S^T - D D^T + ridge I) = RHS
    via the vectorized Kronecker system."""
    dim = s.shape[0]
    lhs = alpha * (s @ s.T) - d @ d.T + ridge * np.eye(dim)
    rhs = alpha * (d @ s.T) - s @ d.T
    big = np.kron(lhs.T, np.eye(dim))
    w_vec = np.linalg.solve(big, rhs.reshape(-1, order="F"))
    return w_vec.reshape((dim, dim), order="F")


class TestKnowledgeProximity:
    def test_single_concept_immediate_ball(self):
        kg = chain_kg(["a", "b", "c"])
        sub = knowledge_proximity(kg, {"b"}, hops=1)
        assert sub.triples == kg.triples

    def test_mid_chain_one_hop_gets_two_triples(self):
        kg = chain_kg(["a", "b", "c", "d"])
        sub = knowledge_proximity(kg, {"b"}, hops=1)
        assert sub.triples == {Triple("a", "linked", "b"), Triple("b", "linked", "c")}

    def test_concepts_inside_seeded_region_still_retrieved(self):
        kg = chain_kg(["a", "b", "c"])
        sub = knowledge_proximity(kg, {"a", "b", "c"}, hops=1)
        assert sub.triples == kg.triples

    def test_unknown_concepts_skipped_with_error_only_if_all(self):
        kg = chain_kg(["a", "b"])
        sub = knowledge_proximity(kg, {"a", "ghost"}, hops=1)
        assert sub.triples == kg.triples
        with pytest.raises(UnknownConceptError):
            knowledge_proximity(kg, {"ghost", "wraith"}, hops=1)

    def test_zero_hops_rejected(self):
        with pytest.raises(ValidationError):
            knowledge_proximity(chain_kg(["a", "b"]), {"a"}, hops=0)


class TestDifferentialSubkg:
    def test_subset_retrieval_gives_empty_difference(self):
        kg = chain_kg(["a", "b", "c", "d"])
        models = [model_for(["a", "b", "c", "d"])]
        seeded = seeded_from(kg, {"a"}, 3, models)
        retrieved = n_hop_neighborhood(kg, {"b"}, 1)
        diff = differential_subkg(retrieved, seeded, models)
        assert diff.triples == frozenset()
        assert diff.embedding_matrix.shape[1] == 0

    def test_one_extra_triple_difference(self):
        kg = chain_kg(["a", "b", "c", "d"])
        models = [model_for(["a", "b", "c", "d"])]
        seeded = seeded_from(kg, {"a"}, 2, models)  # a-b, b-c
        retrieved = n_hop_neighborhood(kg, {"d"}, 1)  # c-d
        diff = differential_subkg(retrieved, seeded, models)
        assert diff.triples == {Triple("c", "linked", "d")}
        assert diff.new_concepts == ("d",)
        assert diff.frontier_depth["d"] == 0

    def test_unresolvable_new_concept_reduces_columns(self):
        kg = KnowledgeGraph.from_labeled_triples([
            ("a", "linked", "b"),
            ("b", "linked", "newone"),
            ("b", "linked", "newtwo"),
            ("b", "linked", "mystery"),
        ])
        models = [model_for(["a", "b", "newone", "newtwo"])]  # mystery missing
        seeded = seeded_from(kg, {"a"}, 1, models)
        retrieved = n_hop_neighborhood(kg, {"b"}, 1)
        diff = differential_subkg(retrieved, seeded, models)
        new = {c for t in diff.triples for c in (t.subject, t.object)} - {"a", "b"}
        assert new == {"newone", "newtwo", "mystery"}
        assert diff.new_concepts == ("newone", "newtwo")
        assert diff.embedding_matrix.shape[1] == 2

    def test_different_parent_rejected(self):
        kg1 = chain_kg(["a", "b"])
        kg2 = chain_kg(["a", "b"])
        models = [model_for(["a", "b"])]
        seeded = seeded_from(kg1, {"a"}, 1, models)
        retrieved = n_hop_neighborhood(kg2, {"a"}, 1)
        with pytest.raises(ValidationError):
            differential_subkg(retrieved, seeded, models)


class TestSolveMapping:
    def test_identical_spaces_at_unit_alpha_give_zero_map(self):
        rng = np.random.default_rng(3)
        s = rng.normal(size=(4, 3))
        sol = solve_mapping(s, s.copy(), alpha=1.0, ridge=0.1)
        assert np.linalg.norm(sol.w) < 1e-10
        assert sol.residual < 1e-10

    def test_small_case_matches_kronecker_oracle(self):
        s = np.array([[1.0], [2.0]])
        d = np.array([[0.5], [-1.0]])
        sol = solve_mapping(s, d, alpha=2.0, ridge=0.1)
        expected = kron_solve(s, d, alpha=2.0, ridge=0.1)
        np.testing.assert_allclose(sol.w, expected, atol=1e-10)
        assert sol.residual < 1e-10

    def test_large_ridge_shrinks_the_map(self):
        rng = np.random.default_rng(9)
        s = rng.normal(size=(3, 4))
        d = rng.normal(size=(3, 4))
        small = solve_mapping(s, d, alpha=1.5, ridge=0.5)
        large = solve_mapping(s, d, alpha=1.5, ridge=1e9)
        assert np.max(np.abs(large.w)) < 1e-6
        assert np.max(np.abs(large.w)) < np.max(np.abs(small.w))

    def test_residual_small_on_random_well_conditioned_instances(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            dim = int(rng.integers(2, 9))
            k = int(rng.integers(1, 6))
            s = rng.normal(size=(dim, k))
            d = rng.normal(size=(dim, k))
            sol = solve_mapping(s, d, alpha=1.0, ridge=0.1)
            assert sol.residual < 1e-8

    def test_column_alignment_handles_unequal_counts(self):
        rng = np.random.default_rng(2)
        s = rng.normal(size=(3, 5))
        d = rng.normal(size=(3, 2))
        sol = solve_mapping(s, d, alpha=1.0, ridge=0.1)
        assert sol.w.shape == (3, 3)
        assert sol.residual < 1e-8

    def test_singular_system_instructs_raising_ridge(self):
        s = np.array([[1.0], [0.0]])
        d = np.array([[1.0], [0.0]])
        # alpha=1, S=D makes the left side exactly ridge * I; ridge=0 is singular.
        with pytest.raises(SolverError) as err:
            solve_mapping(s, d, alpha=1.0, ridge=0.0)
        assert "ridge" in str(err.value)

    def test_parameter_validation(self):
        s = np.ones((2, 1))
        with pytest.raises(ValidationError):
            solve_mapping(s, s, alpha=0.0, ridge=0.1)
        with pytest.raises(ValidationError):
            solve_mapping(s, s, alpha=1.0, ridge=-1.0)
        with pytest.raises(ValidationError):
            solve_mapping(s, np.ones((2, 0)), alpha=1.0, ridge=0.1)


class TestUpdateSeeded:
    def setup_case(self):
        kg = chain_kg(["a", "b", "c", "d"])
        models = [model_for(["a", "b", "c", "d"])]
        seeded = seeded_from(kg, {"a"}, 2, models)
        retrieved = n_hop_neighborhood(kg, {"d"}, 1)
        diff = differential_subkg(retrieved, seeded, models)
        return kg, models, seeded, retrieved, diff

    def test_empty_difference_is_a_no_op(self):
        kg, models, seeded, _, _ = self.setup_case()
        retrieved = n_hop_neighborhood(kg, {"b"}, 1)
        diff = differential_subkg(retrieved, seeded, models)
        updated = update_seeded(seeded, diff, None)
        assert updated is seeded

    def test_identity_map_keeps_normalized_embedding(self):
        from kginfuse.dke import MappingSolution

        _, models, seeded, _, diff = self.setup_case()
        identity = MappingSolution(np.eye(2), 1.0, 0.1, 0.0, 0.0)
        updated = update_seeded(seeded, diff, identity)
        col = updated.embedded_concepts.index("d")
        np.testing.assert_allclose(
            updated.embedding_matrix[:, col], diff.embedding_matrix[:, 0], atol=1e-15
        )

    def test_mapped_column_matches_hand_product(self):
        _, models, seeded, _, diff = self.setup_case()
        sol = solve_mapping(seeded.embedding_matrix, diff.embedding_matrix,
                            alpha=2.0, ridge=0.1)
        updated = update_seeded(seeded, diff, sol)
        v = diff.embedding_matrix[:, 0]
        mapped = sol.w @ v
        mapped = mapped / np.linalg.norm(mapped)
        col = updated.embedded_concepts.index("d")
        np.testing.assert_allclose(updated.embedding_matrix[:, col], mapped, atol=1e-12)

    def test_absorption_is_idempotent(self):
        _, models, seeded, retrieved, diff = self.setup_case()
        sol = solve_mapping(seeded.embedding_matrix, diff.embedding_matrix, 1.0, 0.1)
        updated = update_seeded(seeded, diff, sol)
        again = differential_subkg(retrieved, updated, models)
        assert again.triples == frozenset()
        assert again.embedding_matrix.shape[1] == 0

    def test_triples_grow_monotonically_and_columns_stay_unit(self):
        _, models, seeded, _, diff = self.setup_case()
        sol = solve_mapping(seeded.embedding_matrix, diff.embedding_matrix, 1.0, 0.1)
        updated = update_seeded(seeded, diff, sol)
        assert seeded.subkg.triples <= updated.subkg.triples
        norms = np.linalg.norm(updated.embedding_matrix, axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert updated.relevance["d"] == 1.0 / (1.0 + diff.frontier_depth["d"])
