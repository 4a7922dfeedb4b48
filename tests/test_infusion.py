"""Divergence utilities, the fusion gate, and the inner infusion loop."""

import math

import numpy as np
import pytest

from kginfuse.errors import InfusionError, ValidationError
from kginfuse.infusion import (
    InfusionParams,
    fuse_step,
    kl_divergence,
    gate_gradient,
    knowledge_infusion,
    modulate,
    trace_csv,
)


def make_params(d=2, seed=0, **kw):
    return InfusionParams.init(d, np.random.default_rng(seed), **kw)


def fused_divergence(h, k, params):
    """The composite the gradient is taken through, via public pieces."""
    return kl_divergence(fuse_step(h, k, params), k)


def numeric_gradient(h, k, params, eps=1e-6):
    gw = np.zeros_like(params.gate_weights)
    gb = np.zeros_like(params.gate_bias)
    for arr, out in ((params.gate_weights, gw), (params.gate_bias, gb)):
        flat, gflat = arr.reshape(-1), out.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            up = fused_divergence(h, k, params)
            flat[i] = orig - eps
            down = fused_divergence(h, k, params)
            flat[i] = orig
            gflat[i] = (up - down) / (2 * eps)
    return gw, gb


class TestKlDivergence:
    def test_identical_inputs_give_exact_zero(self):
        v = np.array([0.3, -1.2, 4.0])
        assert kl_divergence(v, v.copy()) == 0.0

    def test_closed_form_two_component_case(self):
        # softmax([ln 2, 0]) = (2/3, 1/3); softmax([0, 0]) = (1/2, 1/2).
        got = kl_divergence([math.log(2), 0.0], [0.0, 0.0])
        want = (2 / 3) * math.log(4 / 3) + (1 / 3) * math.log(2 / 3)
        assert abs(got - want) < 1e-15

    def test_gibbs_inequality_on_random_pairs(self):
        rng = np.random.default_rng(2)
        for _ in range(1000):
            d = rng.integers(2, 8)
            p = rng.normal(scale=3, size=d)
            q = rng.normal(scale=3, size=d)
            kl = kl_divergence(p, q)
            assert kl >= 0.0
            assert kl_divergence(p, p + rng.normal()) <= 1e-12

    def test_shift_invariance_in_both_arguments(self):
        rng = np.random.default_rng(3)
        p = rng.normal(size=5)
        q = rng.normal(size=5)
        base = kl_divergence(p, q)
        for c in (-7.5, 0.25, 40.0):
            assert abs(kl_divergence(p + c, q) - base) <= 1e-12
            assert abs(kl_divergence(p, q + c) - base) <= 1e-12

    def test_non_finite_input_rejected(self):
        with pytest.raises(InfusionError):
            kl_divergence([np.inf, 0.0], [0.0, 0.0])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            kl_divergence([0.0, 1.0], [0.0, 1.0, 2.0])


class TestFuseStep:
    def test_zero_parameters_give_half(self):
        params = make_params(d=3)
        params.gate_weights[:] = 0.0
        params.gate_bias[:] = 0.0
        out = fuse_step(np.ones(3), np.ones(3), params)
        np.testing.assert_allclose(out, 0.5, atol=1e-15)

    def test_width_one_case(self):
        params = InfusionParams(gate_weights=np.array([[1.0, 1.0]]), gate_bias=np.zeros(1))
        np.testing.assert_allclose(fuse_step([0.0], [0.0], params), [0.5])

    def test_hand_multiplied_two_wide_case(self):
        w = np.array([[0.5, -1.0, 2.0, 0.0], [1.0, 1.0, -1.0, 0.5]])
        b = np.array([0.1, -0.2])
        params = InfusionParams(gate_weights=w, gate_bias=b)
        h = np.array([1.0, 2.0])
        k = np.array([-1.0, 0.5])
        z0 = 0.5 * 1 + (-1.0) * 2 + 2.0 * (-1) + 0.0 * 0.5 + 0.1
        z1 = 1.0 * 1 + 1.0 * 2 + (-1.0) * (-1) + 0.5 * 0.5 - 0.2
        expected = 1.0 / (1.0 + np.exp(-np.array([z0, z1])))
        np.testing.assert_allclose(fuse_step(h, k, params), expected, atol=1e-15)

    def test_output_stays_in_open_unit_interval(self):
        rng = np.random.default_rng(4)
        params = make_params(d=4, seed=4)
        for _ in range(50):
            out = fuse_step(rng.normal(size=4), rng.normal(size=4), params)
            assert np.all(out > 0) and np.all(out < 1)

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            fuse_step(np.ones(3), np.ones(2), make_params(d=2))
        with pytest.raises(ValidationError):
            fuse_step(np.ones((4, 3)), np.ones(2), make_params(d=2))

    def test_batch_rows_match_single_vectors(self):
        rng = np.random.default_rng(5)
        for d in (1, 3, 12):
            params = make_params(d=d, seed=d)
            hidden = rng.normal(scale=3, size=(40, d))
            k = rng.normal(size=d)
            batch = fuse_step(hidden, k, params)
            assert batch.shape == hidden.shape
            for row, h in zip(batch, hidden):
                np.testing.assert_allclose(row, fuse_step(h, k, params), rtol=0, atol=1e-15)

    def test_non_finite_batch_rejected(self):
        hidden = np.ones((3, 2))
        hidden[1, 0] = np.nan
        with pytest.raises(InfusionError):
            fuse_step(hidden, np.ones(2), make_params(d=2))


class TestKlfGradient:
    def test_zero_at_the_loss_minimum(self):
        # Gate output equal to the target (up to a softmax shift) is a
        # stationary point.
        k = np.array([0.3, 0.8, 0.55])
        params = make_params(d=3)
        params.gate_weights[:] = 0.0
        params.gate_bias[:] = np.log(k / (1 - k))
        gw, gb = gate_gradient(np.ones(3), k, params)
        assert np.linalg.norm(gw) < 1e-10
        assert np.linalg.norm(gb) < 1e-10

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for seed in range(5):
            params = make_params(d=3, seed=seed)
            h = rng.normal(size=3)
            k = rng.normal(size=3)
            gw, gb = gate_gradient(h, k, params)
            nw, nb = numeric_gradient(h, k, params)
            for a, n in ((gw, nw), (gb, nb)):
                denom = np.maximum(np.abs(a) + np.abs(n), 1e-8)
                assert np.max(np.abs(a - n) / denom) < 1e-6


class TestModulate:
    def test_identity_gate(self):
        h = np.array([1.5, -2.0])
        np.testing.assert_array_equal(modulate(h, np.ones(2)), h)

    def test_zero_gate_annihilates(self):
        assert not modulate(np.array([1.5, -2.0]), np.zeros(2)).any()

    def test_hand_values(self):
        np.testing.assert_allclose(
            modulate(np.array([1.0, -2.0]), np.array([0.5, 0.25])), [0.5, -0.5]
        )

    def test_commutative_and_distributive(self):
        rng = np.random.default_rng(5)
        a, b, c = rng.normal(size=(3, 4))
        np.testing.assert_array_equal(modulate(a, b), modulate(b, a))
        np.testing.assert_allclose(
            modulate(a + c, b), modulate(a, b) + modulate(c, b), atol=1e-15
        )

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            modulate(np.ones(2), np.ones(3))


class TestKnowledgeInfusion:
    def test_zero_iterations_when_gap_already_small(self):
        params = make_params(d=2, seed=1)
        k = np.array([0.2, 0.7])
        h = k + 0.001      # essentially aligned with the target
        h_prev = k + 0.002  # so the divergence gap is far below epsilon
        result = knowledge_infusion(h, h_prev, k, params)
        assert result.inner_iterations == 0
        assert result.exit_reason == "epsilon"
        assert result.divergence_trace == []
        expected = modulate(h, fuse_step(h, k, params))
        np.testing.assert_array_equal(result.modulated, expected)
        assert np.array_equal(result.params.gate_weights, params.gate_weights)

    def test_trace_is_monotone_and_final_no_worse(self):
        params = make_params(d=2, seed=2, epsilon=1e-9, max_inner_iters=40)
        h = np.array([2.0, -1.0])
        h_prev = np.array([-3.0, 3.0])
        k = np.array([0.5, 0.1])
        result = knowledge_infusion(h, h_prev, k, params)
        assert result.inner_iterations > 0
        trace = [cur for _, cur in result.divergence_trace]
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-9
        assert trace[-1] <= trace[0] + 1e-9

    def test_iteration_bound_of_one_applies_one_update(self):
        params = make_params(d=2, seed=3, max_inner_iters=1, epsilon=1e-12)
        h = np.array([4.0, -4.0])
        h_prev = np.array([-4.0, 4.0])
        k = np.array([1.0, 0.0])
        result = knowledge_infusion(h, h_prev, k, params)
        if result.inner_iterations:  # gap was above epsilon
            assert result.inner_iterations == 1
            assert len(result.divergence_trace) == 1

    def test_always_terminates_with_known_reason(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            params = make_params(d=3, seed=int(rng.integers(1 << 30)))
            result = knowledge_infusion(
                rng.normal(size=3), rng.normal(size=3), rng.normal(size=3), params
            )
            assert result.exit_reason in ("epsilon", "iteration_bound")
            assert result.inner_iterations <= params.max_inner_iters
            assert len(result.divergence_trace) == result.inner_iterations

    def test_zero_knowledge_embedding_refused(self):
        with pytest.raises(InfusionError):
            knowledge_infusion(np.ones(2), np.ones(2), np.zeros(2), make_params(d=2))

    def test_trace_csv_shape(self):
        text = trace_csv([(0.5, 0.4), (0.5, 0.3)])
        lines = text.strip().splitlines()
        assert lines[0] == "iteration,d_prev,d_current"
        assert len(lines) == 3
