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
from kginfuse.kg import KnowledgeGraph, SubKG, Triple, n_hop_neighborhood


def model_for(tokens, d_sub=2, seed=0):
    vocab = {t: i for i, t in enumerate(sorted(tokens))}
    vecs = np.random.default_rng(seed).normal(size=(len(vocab), d_sub))
    return DimensionModel("m", vocab, vecs, d_sub)


def chain_kg(labels, predicate="linked"):
    rows = [(labels[i], predicate, labels[i + 1]) for i in range(len(labels) - 1)]
    return KnowledgeGraph.from_labeled_triples(rows)


def columns(sub, models):
    """The embedding columns of a subgraph's concepts, as update_kg's
    mapping diagnostic embeds them: (matrix, embedded ids)."""
    return embed_concepts(sub.parent, sorted(sub.frontier_depth), models)


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
        seeded = n_hop_neighborhood(kg, {"a"}, 3)
        retrieved = n_hop_neighborhood(kg, {"b"}, 1)
        diff = differential_subkg(retrieved, seeded, models)
        assert diff.triples == frozenset()
        assert diff.embedding_matrix.shape[1] == 0

    def test_one_extra_triple_difference(self):
        kg = chain_kg(["a", "b", "c", "d"])
        models = [model_for(["a", "b", "c", "d"])]
        seeded = n_hop_neighborhood(kg, {"a"}, 2)  # a-b, b-c
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
        seeded = n_hop_neighborhood(kg, {"a"}, 1)
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
        seeded = n_hop_neighborhood(kg1, {"a"}, 1)
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

    def test_permuted_columns_are_aligned_before_solving(self):
        # Equal column counts are aligned by cosine too, so listing the same
        # columns in another order gives the same (zero) map.
        s = np.random.default_rng(3).normal(size=(4, 3))
        sol = solve_mapping(s, s[:, [1, 2, 0]], alpha=1.0, ridge=0.1)
        assert np.linalg.norm(sol.w) < 1e-10

    def test_small_case_matches_kronecker_oracle(self):
        s = np.array([[1.0], [2.0]])
        d = np.array([[0.5], [-1.0]])
        sol = solve_mapping(s, d, alpha=2.0, ridge=0.1)
        expected = kron_solve(s, d, alpha=2.0, ridge=0.1)
        np.testing.assert_allclose(sol.w, expected, atol=1e-10)
        assert sol.residual < 1e-10

    def test_imbalance_is_the_size_of_a_negative_difference(self):
        s = np.array([[1.0], [0.0]])
        d = np.array([[0.0], [3.0]])
        sol = solve_mapping(s, d, alpha=1.0, ridge=0.1)
        signed = (np.linalg.norm(s - sol.w @ d) ** 2
                  - np.linalg.norm(sol.w @ s - d) ** 2)
        assert signed < 0
        assert sol.imbalance >= 0
        assert sol.imbalance == pytest.approx(-signed, rel=1e-12)

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
        seeded = n_hop_neighborhood(kg, {"a"}, 2)
        retrieved = n_hop_neighborhood(kg, {"d"}, 1)
        diff = differential_subkg(retrieved, seeded, models)
        return kg, models, seeded, retrieved, diff

    def test_empty_difference_is_a_no_op(self):
        kg, models, seeded, _, _ = self.setup_case()
        retrieved = n_hop_neighborhood(kg, {"b"}, 1)
        diff = differential_subkg(retrieved, seeded, models)
        updated = update_seeded(seeded, diff)
        assert updated is seeded

    def test_new_triples_among_seeded_concepts_need_no_solution(self):
        kg = KnowledgeGraph.from_labeled_triples(
            [("a", "linked", "b"), ("b", "linked", "c"), ("a", "near", "c")])
        models = [model_for(["a", "b", "c"])]
        linked = frozenset(t for t in kg.triples if t.predicate == "linked")
        seeded = SubKG(kg, linked, {"a": 0, "b": 1, "c": 1})
        diff = differential_subkg(n_hop_neighborhood(kg, {"a"}, 1), seeded, models)
        assert diff.triples == {Triple("a", "near", "c")} and not diff.new_concepts
        updated = update_seeded(seeded, diff)
        assert updated.triples == kg.triples
        assert updated.frontier_depth == seeded.frontier_depth

    def test_identity_map_keeps_normalized_embedding(self):
        _, models, seeded, _, diff = self.setup_case()
        matrix, embedded = columns(update_seeded(seeded, diff), models)
        col = embedded.index("d")
        assert matrix[:, col].tobytes() == diff.embedding_matrix[:, 0].tobytes()

    def test_mapped_column_matches_hand_product(self):
        # A nonzero mapping exists between the seeded and new columns, but
        # the absorbed column is the concept's own, bit for bit.
        _, models, seeded, _, diff = self.setup_case()
        sol = solve_mapping(columns(seeded, models)[0], diff.embedding_matrix,
                            alpha=2.0, ridge=0.1)
        assert np.linalg.norm(sol.w) > 0
        matrix, embedded = columns(update_seeded(seeded, diff), models)
        col = embedded.index("d")
        assert matrix[:, col].tobytes() == diff.embedding_matrix[:, 0].tobytes()

    def test_absorption_is_idempotent(self):
        _, models, seeded, retrieved, diff = self.setup_case()
        updated = update_seeded(seeded, diff)
        again = differential_subkg(retrieved, updated, models)
        assert again.triples == frozenset()
        assert again.embedding_matrix.shape[1] == 0

    def test_triples_grow_monotonically_and_columns_stay_unit(self):
        _, models, seeded, _, diff = self.setup_case()
        updated = update_seeded(seeded, diff)
        assert seeded.triples <= updated.triples
        norms = np.linalg.norm(columns(updated, models)[0], axis=0)
        np.testing.assert_allclose(norms, 1.0, atol=1e-12)
        assert seeded.frontier_depth.items() <= updated.frontier_depth.items()
