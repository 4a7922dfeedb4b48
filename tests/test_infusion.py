"""Divergence utilities, the fusion gate, and the inner infusion loop."""

import math

import numpy as np
import pytest

from kginfuse.errors import InfusionError, ValidationError
from kginfuse import infusion
from kginfuse.infusion import (
    InfusionParams,
    fuse_step,
    kl_divergence,
    gate_gradient,
    gradient_check,
    knowledge_infusion,
    trace_csv,
)


def make_params(d=2, seed=0):
    return InfusionParams.init(d, np.random.default_rng(seed))


# The inner loop's settings at the [infusion] section's defaults.
SETTINGS = dict(gate_lr=0.1, epsilon=1e-4, max_inner_iters=50)


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
                assert np.array_equal(row, fuse_step(h, k, params))

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
            weights = params.gate_weights.copy()
            h = rng.normal(size=3)
            k = rng.normal(size=3)
            assert gradient_check(h, k, params) < 1e-6
            assert np.array_equal(params.gate_weights, weights)

    def test_gradient_check_flags_a_wrong_gradient(self, monkeypatch):
        rng = np.random.default_rng(9)
        h, k = rng.normal(size=3), rng.normal(size=3)
        monkeypatch.setattr(infusion, "gate_gradient",
                            lambda *a: tuple(2.0 * g for g in gate_gradient(*a)))
        assert gradient_check(h, k, make_params(d=3)) > 0.3

    @pytest.mark.parametrize("check", [gate_gradient, gradient_check])
    def test_gate_width_unlike_the_vectors_rejected(self, check):
        wide = np.array([0.2, 0.7, -0.1, 0.4])
        with pytest.raises(ValidationError, match="gate width 3"):
            check(wide, wide, make_params(d=3))
        with pytest.raises(ValidationError, match="gate width 3"):
            check(wide[:3], wide, make_params(d=3))


class TestKnowledgeInfusion:
    def test_zero_iterations_when_gap_already_small(self):
        params = make_params(d=2, seed=1)
        k = np.array([0.2, 0.7])
        h = k + 0.001      # essentially aligned with the target
        h_prev = k + 0.002  # so the divergence gap is far below epsilon
        result = knowledge_infusion(h, h_prev, k, params, **SETTINGS)
        assert result.inner_iterations == 0
        assert result.exit_reason == "epsilon"
        assert result.divergence_trace == []
        assert np.array_equal(result.params.gate_weights, params.gate_weights)
        assert np.array_equal(result.params.gate_bias, params.gate_bias)

    def test_trace_is_monotone_and_final_no_worse(self):
        params = make_params(d=2, seed=2)
        h = np.array([2.0, -1.0])
        h_prev = np.array([-3.0, 3.0])
        k = np.array([0.5, 0.1])
        result = knowledge_infusion(h, h_prev, k, params,
                                    gate_lr=0.1, epsilon=1e-9, max_inner_iters=40)
        assert result.inner_iterations > 0
        trace = [cur for _, cur in result.divergence_trace]
        for earlier, later in zip(trace, trace[1:]):
            assert later <= earlier + 1e-9
        assert trace[-1] <= trace[0] + 1e-9

    def test_iteration_bound_of_one_applies_one_update(self):
        params = make_params(d=2, seed=3)
        h = np.array([4.0, -4.0])
        h_prev = np.array([-4.0, 4.0])
        k = np.array([1.0, 0.0])
        result = knowledge_infusion(h, h_prev, k, params,
                                    gate_lr=0.1, epsilon=1e-12, max_inner_iters=1)
        if result.inner_iterations:  # gap was above epsilon
            assert result.inner_iterations == 1
            assert len(result.divergence_trace) == 1

    def test_always_terminates_with_known_reason(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            params = make_params(d=3, seed=int(rng.integers(1 << 30)))
            result = knowledge_infusion(
                rng.normal(size=3), rng.normal(size=3), rng.normal(size=3), params,
                **SETTINGS,
            )
            assert result.exit_reason in ("epsilon", "iteration_bound")
            assert result.inner_iterations <= SETTINGS["max_inner_iters"]
            assert len(result.divergence_trace) == result.inner_iterations

    def test_zero_knowledge_embedding_refused(self):
        with pytest.raises(InfusionError):
            knowledge_infusion(np.ones(2), np.ones(2), np.zeros(2), make_params(d=2),
                               **SETTINGS)

    @pytest.mark.parametrize("bad", [dict(gate_lr=0.0), dict(epsilon=-1e-4),
                                     dict(max_inner_iters=0)])
    def test_bad_settings_rejected(self, bad):
        with pytest.raises(ValidationError):
            knowledge_infusion(np.ones(2), np.ones(2), np.ones(2), make_params(d=2),
                               **{**SETTINGS, **bad})

    def test_gate_width_unlike_the_vectors_rejected_before_any_step(self):
        wide = np.array([0.2, 0.7, -0.1, 0.4])
        gate = make_params(d=3)
        # The epsilon test would fire before any step (h is the target) ...
        with pytest.raises(ValidationError, match="gate 3"):
            knowledge_infusion(wide, wide + 0.001, wide, gate, **SETTINGS)
        # ... or a step would be taken first.
        with pytest.raises(ValidationError, match="gate 3"):
            knowledge_infusion(-wide, wide[::-1] * 5, wide, gate, **SETTINGS)

    def test_trace_csv_shape(self):
        text = trace_csv([[(0.5, 0.4), (0.5, 0.3)], [], [(0.6, 0.2)]])
        assert text.splitlines() == ["epoch,iteration,d_prev,d_current",
                                     "1,1,0.5,0.4", "1,2,0.5,0.3", "3,1,0.6,0.2"]


# An instance whose loop runs to its bound and backtracks on most steps.
BOUND_CASE = (np.array([-0.4, 1.5, -0.6, 0.9]), np.array([3.1, -2.2, 0.5, -4.0]),
              np.array([0.7, -0.3, 1.1, 0.2]))
BOUND_SETTINGS = dict(gate_lr=200.0, epsilon=1e-9, max_inner_iters=8)


def prefix_params(n):
    """The gate after i = 0..n steps of the bound case's loop, each from a
    run whose iteration bound is i."""
    start = make_params(d=4, seed=1)
    return [start] + [knowledge_infusion(*BOUND_CASE, start, **{**BOUND_SETTINGS,
                                                               "max_inner_iters": i}).params
                      for i in range(1, n + 1)]


class TestOneGateKernel:
    def test_trace_entries_are_the_divergence_of_the_gate_so_far(self):
        h, _, k = BOUND_CASE
        result = knowledge_infusion(*BOUND_CASE, make_params(d=4, seed=1), **BOUND_SETTINGS)
        assert result.exit_reason == "iteration_bound"
        n = result.inner_iterations
        for (_, d_cur), gate in zip(result.divergence_trace, prefix_params(n - 1)):
            assert d_cur == kl_divergence(fuse_step(h, k, gate), k)

    def test_one_gate_evaluation_per_iteration_and_per_candidate(self, monkeypatch):
        h, _, k = BOUND_CASE
        n, lr = BOUND_SETTINGS["max_inner_iters"], BOUND_SETTINGS["gate_lr"]
        expected = 0
        points = prefix_params(n)
        for before, after in zip(points, points[1:]):
            grad_w, _ = gate_gradient(h, k, before)
            tries = next((j + 1 for j in range(infusion._BACKTRACK_LIMIT)
                          if np.array_equal(before.gate_weights - lr * 0.5 ** j * grad_w,
                                            after.gate_weights)),
                         infusion._BACKTRACK_LIMIT)
            expected += 1 + tries  # the current point, then each candidate
        assert expected > 2 * n  # some steps were halved
        calls = []
        gate = infusion._gate
        monkeypatch.setattr(infusion, "_gate", lambda *a: calls.append(1) or gate(*a))
        result = knowledge_infusion(*BOUND_CASE, make_params(d=4, seed=1), **BOUND_SETTINGS)
        assert result.inner_iterations == n
        assert len(calls) == expected
