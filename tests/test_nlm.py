"""Recurrent classifier: forward semantics, training, gradient checking."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kginfuse.errors import ValidationError
from kginfuse.nlm import (
    Batch,
    _backprop,
    _recur,
    _sigmoid,
    batch_gradients,
    collect_hidden,
    finite_difference_errors,
    forward_batch,
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


def labelled(pairs):
    """The labelled Batch of (sequence, class_index) pairs."""
    return Batch.of([seq for seq, _ in pairs], [label for _, label in pairs])


def alone(params, seq):
    """One sequence's per-layer final hidden vectors and class
    probabilities: its rows of a batch of one."""
    finals, probs = forward_batch(params, Batch.of([seq]))
    return [rows[0] for rows in finals], probs[0]


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
        hidden, probs = alone(params, np.ones((3, 3)))
        for h in hidden:
            np.testing.assert_array_equal(h, np.zeros(4))
        np.testing.assert_allclose(probs, np.full(3, 1 / 3), atol=1e-15)

    def test_matches_hand_unrolled_reference(self):
        params = small_params(seed=2, d=2, input_width=2, n_classes=2)
        seq = np.random.default_rng(9).normal(size=(3, 2))
        hidden, probs = alone(params, seq)
        ref_hidden, ref_probs = reference_forward(params, seq)
        for got, want in zip(hidden, ref_hidden):
            np.testing.assert_allclose(got, want, atol=1e-14)
        np.testing.assert_allclose(probs, ref_probs, atol=1e-14)

    def test_recurrence_active_with_zero_forget_bias(self):
        params = small_params(seed=3)
        for b in params.layer_biases:
            b[4:8] = 0.0
        token = np.full((1, 3), 0.4)
        one, _ = alone(params, token)
        two, _ = alone(params, np.repeat(token, 2, axis=0))
        assert not np.allclose(one[-1], two[-1])

    def test_probabilities_form_a_simplex(self):
        rng = np.random.default_rng(12)
        params = small_params(seed=12)
        for _ in range(20):
            _, probs = alone(params, rng.normal(size=(rng.integers(1, 7), 3)))
            assert abs(probs.sum() - 1.0) <= 1e-12
            assert np.all(probs >= 0)

    def test_deterministic_bitwise(self):
        params = small_params(seed=4)
        seq = np.random.default_rng(1).normal(size=(6, 3))
        s1, p1 = alone(params, seq)
        s2, p2 = alone(params, seq)
        assert np.array_equal(p1, p2)
        assert all(np.array_equal(a, b) for a, b in zip(s1, s2))

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValidationError):
            Batch.of([np.zeros((0, 3))])

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            forward_batch(small_params(), Batch.of([np.zeros((2, 5))]))


class TestBatchOf:
    """Batch.of is the one way to pad arrays; each entry point checks the
    Batch it gets against the model."""

    def test_pads_each_sequence_to_the_longest(self):
        a, b = np.arange(6.0).reshape(3, 2), np.array([[7.0, 8.0]])
        batch = Batch.of([a, b], [1, 0])
        assert len(batch) == 2
        np.testing.assert_array_equal(batch.x[:, 0], a)
        np.testing.assert_array_equal(batch.x[:, 1], [[7.0, 8.0], [0.0, 0.0], [0.0, 0.0]])
        np.testing.assert_array_equal(batch.mask, [[True, True], [True, False], [True, False]])
        np.testing.assert_array_equal(batch.labels, [1, 0])
        assert Batch.of([a]).labels is None

    @pytest.mark.parametrize("sequences, labels", [
        ([], None),
        ([np.zeros(3)], None),
        ([np.zeros((2, 3, 1))], None),
        ([np.zeros((2, 3)), np.zeros((0, 3))], None),
        ([np.zeros((2, 3)), np.zeros((2, 4))], None),
        ([np.zeros((2, 3)), np.zeros((1, 3))], [0]),
        ([np.zeros((2, 3))], [0, 1]),
    ], ids=["empty", "1-d", "3-d", "no-steps", "widths-differ", "too-few-labels",
            "too-many-labels"])
    def test_rejects(self, sequences, labels):
        with pytest.raises(ValidationError):
            Batch.of(sequences, labels)

    @pytest.mark.parametrize("entry", [
        lambda params, batch: forward_batch(params, batch),
        lambda params, batch: batch_gradients(params, batch),
    ], ids=["forward_batch", "batch_gradients"])
    def test_model_width_mismatch_rejected(self, entry):
        with pytest.raises(ValidationError, match="model input width"):
            entry(small_params(), Batch.of([np.zeros((2, 5))], [0]))

    @pytest.mark.parametrize("entry", [
        lambda params, batch: batch_gradients(params, batch),
        lambda params, batch: train_step(params, batch, lr=0.1, clip_norm=5.0),
        lambda params, batch: gradient_check(params, batch),
    ], ids=["batch_gradients", "train_step", "gradient_check"])
    def test_labelled_entry_points_need_labels(self, entry):
        with pytest.raises(ValidationError, match="no labels"):
            entry(small_params(), Batch.of([seq for seq, _ in small_batch()]))

    def test_label_out_of_range_rejected(self):
        with pytest.raises(ValidationError, match="out of range"):
            batch_gradients(small_params(), Batch.of([np.zeros((2, 3))], [3]))


class TestTrainStep:
    def test_zero_learning_rate_is_identity(self):
        params = small_params()
        batch = small_batch()
        updated, _ = train_step(params, labelled(batch), lr=0.0, clip_norm=5.0)
        for (_, a), (_, b) in zip(params.named_groups(), updated.named_groups()):
            assert np.array_equal(a, b)

    def test_duplicated_example_equals_single(self):
        params = small_params()
        example = small_batch()[0]
        once, loss1 = train_step(params, labelled([example]), lr=0.05, clip_norm=5.0)
        twice, loss2 = train_step(params, labelled([example, example]), lr=0.05, clip_norm=5.0)
        assert loss1 == loss2
        for (_, a), (_, b) in zip(once.named_groups(), twice.named_groups()):
            assert np.array_equal(a, b)

    def test_overfits_single_example(self):
        params = small_params(seed=3, n_classes=2)
        rng = np.random.default_rng(5)
        batch = labelled([(rng.normal(size=(4, 3)), 1)])
        loss = None
        for _ in range(200):
            params, loss = train_step(params, batch, lr=0.2, clip_norm=5.0)
        assert loss < 0.1

    def test_loss_mostly_non_increasing_at_small_lr(self):
        wins = 0
        for seed in range(10):
            params = small_params(seed=seed)
            batch = labelled(small_batch(seed=seed))
            losses = [train_step(params, batch, lr=1e-3, clip_norm=5.0)[1]]
            for _ in range(10):
                params, loss = train_step(params, batch, lr=1e-3, clip_norm=5.0)
                losses.append(loss)
            if all(b <= a + 1e-12 for a, b in zip(losses, losses[1:])):
                wins += 1
        assert wins >= 9

    def test_empty_batch_rejected(self):
        with pytest.raises(ValidationError):
            train_step(small_params(), Batch.of([]), lr=0.1, clip_norm=5.0)


class TestGradientCheck:
    def test_full_small_model_close_to_finite_differences(self):
        report = gradient_check(small_params(seed=2), labelled(small_batch(seed=2)))
        assert report.max_relative_error < 1e-5

    def test_head_group_is_tight(self):
        report = gradient_check(
            small_params(seed=5), labelled(small_batch(seed=5)), groups=["head.W", "head.b"]
        )
        assert report.max_relative_error < 1e-7

    def test_suppressed_class_direction_is_flat(self):
        # One-class batch with the unused class strongly suppressed: the
        # analytic and numeric gradients of its head row both vanish.
        params = small_params(seed=6, n_classes=2)
        params.b_out[1] = -40.0
        rng = np.random.default_rng(0)
        batch = labelled([(rng.normal(size=(3, 3)), 0) for _ in range(2)])
        report = gradient_check(params, batch, groups=["head.W", "head.b"])
        assert report.max_relative_error < 1e-6


class TestEpochHiddenSummary:
    """collect_hidden rows, whose column means train hands to the infusion loop."""

    def test_single_example_is_its_own_summary(self):
        params = small_params(seed=8)
        seq = np.random.default_rng(2).normal(size=(4, 3))
        finals, penults = collect_hidden(params, Batch.of([seq]))
        hidden, _ = alone(params, seq)
        np.testing.assert_array_equal(finals, [hidden[-1]])
        np.testing.assert_array_equal(penults, [hidden[-2]])

    def test_duplicates_do_not_move_the_mean(self):
        params = small_params(seed=8)
        seq = np.random.default_rng(2).normal(size=(4, 3))
        once, _ = collect_hidden(params, Batch.of([seq]))
        thrice, _ = collect_hidden(params, Batch.of([seq, seq, seq]))
        np.testing.assert_array_equal(thrice, np.repeat(once, 3, axis=0))
        np.testing.assert_allclose(once.mean(axis=0), thrice.mean(axis=0), atol=1e-15)

    def test_mean_of_two_examples(self):
        params = small_params(seed=8)
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 3)), rng.normal(size=(2, 3))
        finals, penults = collect_hidden(params, Batch.of([a, b]))
        sa, _ = alone(params, a)
        sb, _ = alone(params, b)
        np.testing.assert_array_equal(finals, [sa[-1], sb[-1]])
        np.testing.assert_array_equal(penults, [sa[-2], sb[-2]])
        np.testing.assert_allclose(finals.mean(axis=0), (sa[-1] + sb[-1]) / 2, atol=1e-15)


def test_softmax_is_simplex_for_arbitrary_logits():
    rng = np.random.default_rng(0)
    for _ in range(100):
        p = softmax(rng.normal(scale=30, size=rng.integers(2, 9)))
        assert abs(p.sum() - 1.0) <= 1e-12
        assert np.all(p >= 0)


def test_minimum_layer_count_enforced():
    with pytest.raises(ValidationError):
        init_params(3, 4, 1, 2, np.random.default_rng(0))


def row_products(rows, W):
    """rows @ W.T as the kernel forms it: one BLAS vector-matrix product
    per row, against the same transposed view of W (a contiguous copy of
    W.T reaches another BLAS kernel and can differ in the last bit)."""
    return np.matmul(rows[:, None, :], W.T)[:, 0]


def einsum_products(rows, W):
    """rows @ W.T by einsum, which sums in its own order."""
    return np.einsum("bk,gk->bg", rows, W)


def reference_recur(params, x, mask, cache=None, product=row_products):
    """The step-by-step kernel the current one replaced, as an oracle: a
    concatenate, two activations and, when training, a cached tuple per
    step. product(rows, W) forms each step's rows @ W.T. Returns each
    layer's final hidden rows."""
    d = params.d
    steps, rows = mask.shape
    finals = []
    inputs = x
    for l, (W, b) in enumerate(zip(params.layer_weights, params.layer_biases)):
        h = np.zeros((rows, d))
        c = np.zeros((rows, d))
        outs = np.empty((steps, rows, d)) if l + 1 < params.layers else None
        if cache is not None:
            cache.append([])
        for t in range(steps):
            joint = np.concatenate([inputs[t], h], axis=1)
            z = product(joint, W) + b
            sig = _sigmoid(z[:, :3 * d])
            gg = np.tanh(z[:, 3 * d:])
            c_new = sig[:, d:2 * d] * c + sig[:, :d] * gg
            tc = np.tanh(c_new)
            if cache is not None:
                cache[-1].append((joint, sig, gg, c, tc))
            live = mask[t][:, None]
            c = np.where(live, c_new, c)
            h = np.where(live, sig[:, 2 * d:] * tc, h)
            if outs is not None:
                outs[t] = h
        finals.append(h)
        inputs = outs
    return finals


def reference_logits(params, h_last):
    """The LSTM head's logit rows, written out for the oracle."""
    return np.einsum("bd,nd->bn", h_last, params.w_out) + params.b_out


def reference_backprop(params, cache, mask, dh_last):
    """The step-by-step backward pass that went with reference_recur, from
    the gradient dh_last on the top layer's final hidden rows: the
    gate-derivative factors and a weight-gradient einsum in every step,
    and the input gradient as one BLAS product per row, as the kernel
    forms it. Returns the layer groups' gradients."""
    d = params.d
    steps, rows = mask.shape
    grads = {}
    dh_above = np.zeros((steps, rows, d))
    dh_above[-1] = dh_last
    for l in range(params.layers - 1, -1, -1):
        W = params.layer_weights[l]
        in_l = W.shape[1] - d
        dx = np.zeros((steps, rows, in_l))
        dh_next = np.zeros((rows, d))
        dc_next = np.zeros((rows, d))
        gW = grads[f"layer{l}.W"] = np.zeros_like(W)
        gb = grads[f"layer{l}.b"] = np.zeros(4 * d)
        for t in range(steps - 1, -1, -1):
            joint, sig, gg, c_prev, tc = cache[l][t]
            gi, gf, go = sig[:, :d], sig[:, d:2 * d], sig[:, 2 * d:]
            dh = dh_above[t] + dh_next
            dc = dc_next + dh * go * (1.0 - tc * tc)
            dz = np.concatenate([
                dc * gg * gi * (1.0 - gi),
                dc * c_prev * gf * (1.0 - gf),
                dh * tc * go * (1.0 - go),
                dc * gi * (1.0 - gg * gg),
            ], axis=1)
            live = mask[t][:, None]
            dz = np.where(live, dz, 0.0)
            gW += np.einsum("bg,bk->gk", dz, joint)
            gb += dz.sum(axis=0)
            djoint = np.matmul(dz[:, None, :], W)[:, 0]
            dx[t] = djoint[:, :in_l]
            dh_next = np.where(live, djoint[:, in_l:], dh)
            dc_next = np.where(live, dc * gf, dc_next)
        dh_above = dx
    return grads


@st.composite
def ragged_batches(draw):
    """1 to 40 labelled sequences of 1 to 6 steps, one of them 1 step long."""
    lengths = draw(st.lists(st.integers(1, 6), max_size=39))
    lengths.insert(draw(st.integers(0, len(lengths))), 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [(rng.normal(size=(n, 3)), int(rng.integers(3))) for n in lengths]


@st.composite
def equal_batches(draw):
    """1 to 40 labelled sequences, all of the same 2 to 8 steps: no step
    has a padded row."""
    count, steps = draw(st.integers(1, 40)), draw(st.integers(2, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return [(rng.normal(size=(steps, 3)), int(rng.integers(3))) for _ in range(count)]


def assert_rows_are_the_batches_of_one(batch, params=None):
    params = small_params(seed=11) if params is None else params
    sequences = [seq for seq, _ in batch]
    finals, probs = forward_batch(params, Batch.of(sequences))
    for i, seq in enumerate(sequences):
        hidden, p = alone(params, seq)
        for rows, h in zip(finals, hidden):
            assert np.array_equal(rows[i], h)
        assert np.array_equal(probs[i], p)
        ref_hidden, ref_probs = reference_forward(params, seq)
        np.testing.assert_allclose(hidden[-1], ref_hidden[-1], rtol=0, atol=1e-14)
        np.testing.assert_allclose(p, ref_probs, rtol=0, atol=1e-14)


def assert_gradient_is_the_mean_of_the_batches_of_one(batch, params=None):
    params = small_params(seed=12) if params is None else params
    loss, grads = batch_gradients(params, labelled(batch))
    singles = [batch_gradients(params, labelled([example])) for example in batch]
    assert abs(loss - np.mean([l for l, _ in singles])) <= 1e-12
    for name, grad in grads.items():
        mean = np.mean([g[name] for _, g in singles], axis=0)
        np.testing.assert_allclose(grad, mean, rtol=0, atol=1e-12)


def assert_matches_the_step_by_step_kernel(batch):
    """Forward values byte-equal to reference_recur's; gradients equal to
    reference_backprop's up to the order their sums are taken in."""
    params = small_params(seed=14, layers=3)
    padded = labelled(batch)
    cache = []
    ref_finals = reference_recur(params, padded.x, padded.mask, cache)
    ref_logits = reference_logits(params, ref_finals[-1])
    finals, probs = forward_batch(params, padded)
    for rows, ref_rows in zip(finals, ref_finals):
        assert np.array_equal(rows, ref_rows)
    assert np.array_equal(probs, softmax(ref_logits))
    dlogits = softmax(ref_logits)
    dlogits[np.arange(len(batch)), padded.labels] -= 1.0
    ref_grads = reference_backprop(params, cache, padded.mask,
                                   np.einsum("bn,nd->bd", dlogits, params.w_out))
    ref_grads["head.W"] = np.einsum("bn,bd->nd", dlogits, ref_finals[-1])
    ref_grads["head.b"] = dlogits.sum(axis=0)
    _, grads = batch_gradients(params, padded)
    assert grads.keys() == ref_grads.keys()
    for name, grad in grads.items():
        np.testing.assert_allclose(grad, ref_grads[name] / len(batch), rtol=0, atol=1e-13)


class TestBatchedKernel:
    """One padded, masked batch gives each sequence what it gets alone."""

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(ragged_batches())
    def test_rows_are_bit_identical_to_the_batch_of_one(self, batch):
        assert_rows_are_the_batches_of_one(batch)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(equal_batches())
    def test_rows_of_equal_lengths_are_bit_identical_to_the_batch_of_one(self, batch):
        assert_rows_are_the_batches_of_one(batch)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(ragged_batches())
    def test_gradient_is_the_mean_of_the_batches_of_one(self, batch):
        assert_gradient_is_the_mean_of_the_batches_of_one(batch)

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(equal_batches())
    def test_gradient_of_equal_lengths_is_the_mean_of_the_batches_of_one(self, batch):
        assert_gradient_is_the_mean_of_the_batches_of_one(batch)

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(ragged_batches())
    def test_gradient_check_on_a_ragged_batch(self, batch):
        assert gradient_check(small_params(seed=13), labelled(batch)).max_relative_error < 1e-4

    def test_a_loss_on_the_hidden_rows_reaches_every_layer(self):
        # sum(V * h_last): a loss with no head, whose gradient on the top
        # layer's final hidden rows is V itself.
        params = small_params(seed=17, layers=3)
        batch = small_batch(seed=17)
        padded = Batch.of([seq for seq, _ in batch])
        V = np.random.default_rng(18).normal(size=(len(batch), params.d))
        cache = []
        _recur(params, padded.x, padded.mask, cache)
        grads = _backprop(params, cache, padded.mask, V)
        work = params.copy()
        arrays = {name: arr for name, arr in work.named_groups() if name.startswith("layer")}
        assert grads.keys() == arrays.keys()
        errors = finite_difference_errors(
            lambda: float(np.sum(V * _recur(work, padded.x, padded.mask)[-1])),
            {name: (arr, grads[name]) for name, arr in arrays.items()})
        assert max(errors.values()) < 1e-4

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(ragged_batches())
    def test_matches_the_step_by_step_kernel(self, batch):
        assert_matches_the_step_by_step_kernel(batch)

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(equal_batches())
    def test_equal_lengths_match_the_step_by_step_kernel(self, batch):
        assert_matches_the_step_by_step_kernel(batch)


def benchmark_sized_batch(seed, rows, lengths):
    """rows labelled sequences of width 24 with lengths drawn from lengths."""
    rng = np.random.default_rng(seed)
    return [(rng.normal(size=(int(rng.choice(lengths)), 24)), int(rng.integers(3)))
            for _ in range(rows)]


class TestBenchmarkSizes:
    """The batch-of-one properties at the benchmark's shapes, where BLAS
    may take other paths than at width 3: 400 ragged rows of up to 6
    steps, as many rows as a wide-graph training set, and 100 rows of 24
    steps, as in a wide-graph eval."""

    def params(self, seed):
        return small_params(seed=seed, input_width=24, d=12)

    def test_400_ragged_rows_are_the_batches_of_one(self):
        batch = benchmark_sized_batch(1, 400, range(1, 7))
        assert_rows_are_the_batches_of_one(batch, self.params(11))
        assert_gradient_is_the_mean_of_the_batches_of_one(batch, self.params(12))

    def test_100_rows_of_24_steps_are_the_batches_of_one(self):
        batch = benchmark_sized_batch(2, 100, [24])
        assert_rows_are_the_batches_of_one(batch, self.params(11))
        assert_gradient_is_the_mean_of_the_batches_of_one(batch, self.params(12))


def assert_close_to_an_einsum_product_kernel(params, sequences):
    """Only the products' summation order separates the kernel from one
    whose products are einsums."""
    padded = Batch.of(sequences)
    finals = reference_recur(params, padded.x, padded.mask, product=einsum_products)
    got, probs = forward_batch(params, padded)
    for rows, ref_rows in zip(got, finals):
        np.testing.assert_allclose(rows, ref_rows, rtol=0, atol=1e-14)
    np.testing.assert_allclose(probs, softmax(reference_logits(params, finals[-1])),
                               rtol=0, atol=1e-14)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(ragged_batches())
def test_forward_is_close_to_an_einsum_product_kernel(batch):
    assert_close_to_an_einsum_product_kernel(small_params(seed=15, layers=3),
                                             [seq for seq, _ in batch])


def test_forward_at_benchmark_size_is_close_to_an_einsum_product_kernel():
    batch = benchmark_sized_batch(3, 100, range(1, 25))
    assert_close_to_an_einsum_product_kernel(small_params(seed=16, input_width=24, d=12),
                                             [seq for seq, _ in batch])


def test_sigmoid_is_finite_bounded_and_symmetric():
    x = np.array([1e308, -1e308, 800.0, -800.0, 40.0, -40.0, 0.0])
    with np.errstate(all="raise"):
        up, down = _sigmoid(x), _sigmoid(-x)
    assert np.all(np.isfinite(up)) and np.all((up >= 0.0) & (up <= 1.0))
    np.testing.assert_allclose(up + down, 1.0, rtol=0, atol=1e-16)
