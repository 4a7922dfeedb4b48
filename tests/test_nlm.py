"""Recurrent classifier: forward semantics, training, gradient checking."""

import numpy as np
import pytest

from kginfuse.errors import ValidationError
from kginfuse.nlm import (
    collect_hidden,
    forward,
    gradient_check,
    init_params,
    softmax,
    train_step,
)


def small_params(seed=7, input_width=3, d=4, layers=2, n_classes=3):
    return init_params(input_width, d, layers, n_classes, np.random.default_rng(seed))


def small_batch(seed=7, input_width=3, n_classes=3):
    rng = np.random.default_rng(seed + 100)
    return [
        (rng.normal(size=(5, input_width)), 1 % n_classes),
        (rng.normal(size=(2, input_width)), 0),
        (rng.normal(size=(4, input_width)), 2 % n_classes),
    ]


def zeroed(params):
    for w in params.layer_weights:
        w[:] = 0.0
    for b in params.layer_biases:
        b[:] = 0.0
    params.w_out[:] = 0.0
    params.b_out[:] = 0.0
    return params


def reference_forward(params, seq):
    """Straight-line reimplementation of the recurrence, as an oracle."""

    def sig(x):
        return 1.0 / (1.0 + np.exp(-x))

    d = params.d
    inputs = [np.asarray(v, dtype=float) for v in seq]
    hidden = []
    for l in range(params.layers):
        W, b = params.layer_weights[l], params.layer_biases[l]
        h = np.zeros(d)
        c = np.zeros(d)
        outs = []
        for x in inputs:
            z = W @ np.concatenate([x, h]) + b
            gi, gf, go = sig(z[:d]), sig(z[d:2 * d]), sig(z[2 * d:3 * d])
            gg = np.tanh(z[3 * d:])
            c = gf * c + gi * gg
            h = go * np.tanh(c)
            outs.append(h)
        hidden.append(h)
        inputs = outs
    logits = params.w_out @ inputs[-1] + params.b_out
    probs = np.exp(logits - logits.max())
    return hidden, probs / probs.sum()


class TestForward:
    def test_all_zero_params_give_zero_hidden_and_uniform_softmax(self):
        params = zeroed(small_params())
        states, probs = forward(params, np.ones((3, 3)))
        for h in states.h:
            np.testing.assert_array_equal(h, np.zeros(4))
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-15)

    def test_matches_hand_unrolled_reference(self):
        params = small_params(seed=2, d=2, input_width=2, n_classes=2)
        seq = np.random.default_rng(9).normal(size=(3, 2))
        states, probs = forward(params, seq)
        ref_hidden, ref_probs = reference_forward(params, seq)
        for got, want in zip(states.h, ref_hidden):
            np.testing.assert_allclose(got, want, atol=1e-14)
        np.testing.assert_allclose(probs, ref_probs, atol=1e-14)

    def test_recurrence_active_with_zero_forget_bias(self):
        params = small_params(seed=3)
        for b in params.layer_biases:
            b[4:8] = 0.0
        token = np.full((1, 3), 0.4)
        one, _ = forward(params, token)
        two, _ = forward(params, np.repeat(token, 2, axis=0))
        assert not np.allclose(one.final, two.final)

    def test_probabilities_form_a_simplex(self):
        rng = np.random.default_rng(12)
        params = small_params(seed=12)
        for _ in range(20):
            _, probs = forward(params, rng.normal(size=(rng.integers(1, 7), 3)))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs >= 0)

    def test_deterministic_bitwise(self):
        params = small_params(seed=4)
        seq = np.random.default_rng(1).normal(size=(6, 3))
        s1, p1 = forward(params, seq)
        s2, p2 = forward(params, seq)
        assert np.array_equal(p1, p2)
        assert all(np.array_equal(a, b) for a, b in zip(s1.h, s2.h))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            forward(small_params(), np.zeros((0, 3)))

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            forward(small_params(), np.zeros((2, 5)))


class TestTrainStep:
    def test_zero_learning_rate_is_identity(self):
        params = small_params()
        batch = small_batch()
        updated, _ = train_step(params, batch, lr=0.0)
        for (_, a), (_, b) in zip(params.named_groups(), updated.named_groups()):
            assert np.array_equal(a, b)

    def test_duplicated_example_equals_single(self):
        params = small_params()
        example = small_batch()[0]
        once, loss1 = train_step(params, [example], lr=0.05)
        twice, loss2 = train_step(params, [example, example], lr=0.05)
        assert loss1 == loss2
        for (_, a), (_, b) in zip(once.named_groups(), twice.named_groups()):
            assert np.array_equal(a, b)

    def test_overfits_single_example(self):
        params = small_params(seed=3, n_classes=2)
        rng = np.random.default_rng(5)
        batch = [(rng.normal(size=(4, 3)), 1)]
        loss = None
        for _ in range(200):
            params, loss = train_step(params, batch, lr=0.2)
        assert loss < 0.1

    def test_loss_mostly_non_increasing_at_small_lr(self):
        wins = 0
        for seed in range(10):
            params = small_params(seed=seed)
            batch = small_batch(seed=seed)
            losses = [train_step(params, batch, lr=1e-3)[1]]
            for _ in range(10):
                params, loss = train_step(params, batch, lr=1e-3)
                losses.append(loss)
            if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
                wins += 1
        assert wins >= 9

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            train_step(small_params(), [], lr=0.1)


class TestGradientCheck:
    def test_full_small_model_close_to_finite_differences(self):
        report = gradient_check(small_params(seed=2), small_batch(seed=2))
        assert report.max_relative_error < 1e-5

    def test_head_group_is_tight(self):
        report = gradient_check(
            small_params(seed=5), small_batch(seed=5), groups=["head.W", "head.b"]
        )
        assert report.max_relative_error < 1e-7

    def test_suppressed_class_direction_is_flat(self):
        # One-class batch with the unused class strongly suppressed: the
        # analytic and numeric gradients of its head row both vanish.
        params = small_params(seed=6, n_classes=2)
        params.b_out[1] = -40.0
        rng = np.random.default_rng(0)
        batch = [(rng.normal(size=(3, 3)), 0) for _ in range(2)]
        report = gradient_check(params, batch, groups=["head.W", "head.b"])
        assert report.max_relative_error < 1e-6


class TestEpochHiddenSummary:
    """collect_hidden rows, whose column means train hands to the infusion loop."""

    def test_single_example_is_its_own_summary(self):
        params = small_params(seed=8)
        seq = np.random.default_rng(2).normal(size=(4, 3))
        finals, penults = collect_hidden(params, [seq])
        states, _ = forward(params, seq)
        np.testing.assert_array_equal(finals, [states.final])
        np.testing.assert_array_equal(penults, [states.penultimate])

    def test_duplicates_do_not_move_the_mean(self):
        params = small_params(seed=8)
        seq = np.random.default_rng(2).normal(size=(4, 3))
        once, _ = collect_hidden(params, [seq])
        thrice, _ = collect_hidden(params, [seq, seq, seq])
        np.testing.assert_array_equal(thrice, np.repeat(once, 3, axis=0))
        np.testing.assert_allclose(once.mean(axis=0), thrice.mean(axis=0), atol=1e-15)

    def test_mean_of_two_examples(self):
        params = small_params(seed=8)
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(2, 3))
        finals, penults = collect_hidden(params, [a, b])
        sa, _ = forward(params, a)
        sb, _ = forward(params, b)
        np.testing.assert_array_equal(finals, [sa.final, sb.final])
        np.testing.assert_array_equal(penults, [sa.penultimate, sb.penultimate])
        np.testing.assert_allclose(finals.mean(axis=0), (sa.final + sb.final) / 2, atol=1e-15)


def test_softmax_is_simplex_for_arbitrary_logits():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = softmax(rng.normal(scale=30, size=rng.integers(2, 9)))
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0)


def test_minimum_layer_count_enforced():
    with pytest.raises(ValidationError):
        init_params(3, 4, 1, 2, np.random.default_rng(0))
