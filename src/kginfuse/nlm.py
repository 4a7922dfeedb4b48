"""Many-to-one stacked LSTM classifier with exact backpropagation.

Pure-numpy, float64, deterministic. The last time step's hidden vector
of every layer is exposed so the infusion layer can read the final and
penultimate representations. Gradients are computed analytically and can
be verified against central finite differences.

One kernel serves training, hidden-state collection, the gradient
check's loss and prediction: the recurrence runs over a time-major
zero-padded batch with a length mask; one sequence is a batch of one.
The batched entry points take that padded Batch, which the pipeline
gathers straight from its encoded dataset; a list of (steps, width)
arrays, as the tests and the gradient check pass, is padded first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import KginfuseError, ValidationError


@dataclass
class LSTMParams:
    """Stacked-cell weights plus the softmax head.

    Layer l consumes the sequence of layer l-1 outputs (layer 0 consumes
    the token vectors). Each layer holds one fused gate matrix of shape
    (4d, input_width_l + d) with gate rows ordered input, forget, output,
    modulation, and a (4d,) bias.
    """

    layer_weights: list
    layer_biases: list
    w_out: np.ndarray
    b_out: np.ndarray
    d: int
    input_width: int
    n_classes: int

    @property
    def layers(self) -> int:
        return len(self.layer_weights)

    def named_groups(self):
        for l in range(self.layers):
            yield f"layer{l}.W", self.layer_weights[l]
            yield f"layer{l}.b", self.layer_biases[l]
        yield "head.W", self.w_out
        yield "head.b", self.b_out

    def copy(self) -> "LSTMParams":
        return LSTMParams(
            layer_weights=[w.copy() for w in self.layer_weights],
            layer_biases=[b.copy() for b in self.layer_biases],
            w_out=self.w_out.copy(),
            b_out=self.b_out.copy(),
            d=self.d,
            input_width=self.input_width,
            n_classes=self.n_classes,
        )


@dataclass
class HiddenStates:
    """Per-layer hidden vectors at the final time step: one (d,) vector per
    layer for one sequence, one (B, d) array of rows for a batch."""

    h: list

    @property
    def final(self) -> np.ndarray:
        return self.h[-1]

    @property
    def penultimate(self) -> np.ndarray:
        return self.h[-2]


def init_params(input_width: int, d: int, layers: int, n_classes: int,
                rng: np.random.Generator) -> LSTMParams:
    """Uniform(-1/sqrt(d), 1/sqrt(d)) weights, +1 forget-gate bias."""
    if layers < 2:
        raise ValidationError("at least 2 recurrent layers are required")
    if d < 1 or input_width < 1 or n_classes < 2:
        raise ValidationError("bad model dimensions")
    bound = 1.0 / np.sqrt(d)
    weights, biases = [], []
    for l in range(layers):
        in_l = input_width if l == 0 else d
        weights.append(rng.uniform(-bound, bound, size=(4 * d, in_l + d)))
        bias = np.zeros(4 * d)
        bias[d:2 * d] = 1.0
        biases.append(bias)
    w_out = rng.uniform(-bound, bound, size=(n_classes, d))
    b_out = np.zeros(n_classes)
    return LSTMParams(weights, biases, w_out, b_out, d, input_width, n_classes)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid as 0.5 * (1 + tanh(x / 2)): branch-free, cannot overflow."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def log_softmax(x: np.ndarray) -> np.ndarray:
    """Log-softmax along the last axis (each row of a batch on its own)."""
    shifted = x - np.max(x, axis=-1, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=-1, keepdims=True))


def softmax(x: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(x))


@dataclass
class Batch:
    """A time-major zero-padded batch: inputs x (T, B, input_width), the
    (T, B) mask, True where step t lies inside sequence b, and the (B,)
    class indices of a training batch (None otherwise)."""

    x: np.ndarray
    mask: np.ndarray
    labels: np.ndarray | None = None

    def __len__(self) -> int:
        return self.mask.shape[1]


def _check_width(params: LSTMParams, width: int) -> None:
    if width != params.input_width:
        raise ValidationError(f"token width {width} != model input width {params.input_width}")


def _as_sequence(params: LSTMParams, sequence) -> np.ndarray:
    seq = np.asarray(sequence, dtype=np.float64)
    if seq.ndim == 1:
        seq = seq[None, :]
    if seq.ndim != 2 or seq.shape[0] == 0:
        raise ValidationError("sequence must be a nonempty list of vectors")
    _check_width(params, seq.shape[1])
    return seq


def _padded(params: LSTMParams, sequences, labels=None) -> Batch:
    """The list-of-arrays adapter: the Batch of (steps, input_width)
    sequences, zero-padded to the longest."""
    seqs = [_as_sequence(params, s) for s in sequences]
    if not seqs:
        raise ValidationError("batch is empty")
    lengths = np.array([len(s) for s in seqs])
    mask = np.arange(lengths.max())[:, None] < lengths
    x = np.zeros(mask.shape + (params.input_width,))
    x.transpose(1, 0, 2)[mask.T] = np.concatenate(seqs)
    return Batch(x, mask, None if labels is None else np.array(labels))


def _as_batch(params: LSTMParams, batch, labelled: bool = False) -> Batch:
    """batch if it is a Batch, else the padded Batch of a list of sequences
    or, when labelled, of (sequence, class_index) pairs; its width and
    class indices checked against the model."""
    if not isinstance(batch, Batch):
        if labelled:
            batch = _padded(params, [s for s, _ in batch], [label for _, label in batch])
        else:
            batch = _padded(params, batch)
    _check_width(params, batch.x.shape[-1])
    if labelled:
        bad = batch.labels[(batch.labels < 0) | (batch.labels >= params.n_classes)]
        if bad.size:
            raise ValidationError(f"label index {bad[0]} out of range")
    return batch


def _recur(params: LSTMParams, x: np.ndarray, mask: np.ndarray, cache=None):
    """The batched recurrence over a padded batch; returns each layer's final
    hidden rows (B, d) and the head logits (B, n_classes).

    Past a sequence's end (mask False) its h and c carry forward unchanged,
    so its final row is its state at its last step. Every product is an
    einsum, whose sums run over one row at a time: a row's values do not
    depend on what else is in the batch (a BLAS matmul's do). Given a list
    as cache, each layer appends what backpropagation needs; without one
    only the running state and one layer's outputs are kept.
    """
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
            z = np.einsum("bk,gk->bg", joint, W) + b
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
    logits = np.einsum("bd,nd->bn", finals[-1], params.w_out) + params.b_out
    return finals, logits


def _backprop(params: LSTMParams, cache: list, mask: np.ndarray, h_last: np.ndarray,
              dlogits: np.ndarray) -> dict:
    """Summed gradients of the batch loss, given its gradient w.r.t. the logits.

    dz is 0 at masked steps, and dh and dc pass back through them
    unchanged, mirroring the forward carry. Each step adds its
    contribution to the weight gradient in reverse time order.
    """
    d = params.d
    steps, rows = mask.shape
    grads = {"head.W": np.einsum("bn,bd->nd", dlogits, h_last),
             "head.b": dlogits.sum(axis=0)}
    dh_above = np.zeros((steps, rows, d))
    dh_above[-1] = np.einsum("bn,nd->bd", dlogits, params.w_out)
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
            djoint = np.einsum("bg,gk->bk", dz, W)
            dx[t] = djoint[:, :in_l]
            dh_next = np.where(live, djoint[:, in_l:], dh)
            dc_next = np.where(live, dc * gf, dc_next)
        dh_above = dx
    return grads


def forward_batch(params: LSTMParams, sequences):
    """Full forward pass of a Batch (or a list of sequences): every layer's
    final-step hidden rows (B, d) and the class probabilities (B, n_classes).
    Row i is bit-identical to forward(params, sequences[i])."""
    batch = _as_batch(params, sequences)
    finals, logits = _recur(params, batch.x, batch.mask)
    probs = softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise KginfuseError("non-finite values in forward pass")
    return HiddenStates(h=finals), probs


def forward(params: LSTMParams, sequence):
    """Full forward pass; returns final-step hidden states and class probabilities."""
    states, probs = forward_batch(params, [sequence])
    return HiddenStates(h=[h[0] for h in states.h]), probs[0]


def _mean_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(-np.mean(log_softmax(logits)[np.arange(len(labels)), labels]))


def batch_gradients(params: LSTMParams, batch):
    """Mean cross-entropy loss and its exact gradient over a batch.

    batch is a labelled Batch or a list of (sequence, class_index) pairs.
    No clipping here; train_step applies the clip.
    """
    batch = _as_batch(params, batch, labelled=True)
    labels = batch.labels
    cache = []
    finals, logits = _recur(params, batch.x, batch.mask, cache)
    loss = _mean_loss(logits, labels)
    if not np.isfinite(loss):
        raise KginfuseError(f"non-finite training loss: {loss!r}")
    dlogits = softmax(logits)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    summed = _backprop(params, cache, batch.mask, finals[-1], dlogits)
    scale = 1.0 / len(labels)
    return loss, {name: summed[name] * scale for name, _ in params.named_groups()}


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale gradients in place to the global norm bound; returns the raw norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def train_step(params: LSTMParams, batch, lr: float, clip_norm: float):
    """One SGD step on the mean cross-entropy; returns (new params, loss)."""
    loss, grads = batch_gradients(params, batch)
    clip_gradients(grads, clip_norm)
    out = params.copy()
    updated = dict(out.named_groups())
    for name, arr in updated.items():
        arr -= lr * grads[name]
    return out, loss


@dataclass
class GradCheckReport:
    max_relative_error: float
    by_group: dict
    parameter_count: int


def gradient_check(params: LSTMParams, batch, epsilon: float = 1e-5,
                   groups=None) -> GradCheckReport:
    """finite_difference_errors of the batch loss over the named groups (all
    by default); intended for small models (a few thousand parameters)."""
    batch = _as_batch(params, batch, labelled=True)
    _, analytic = batch_gradients(params, batch)
    work = params.copy()
    arrays = dict(work.named_groups())
    selected = list(arrays) if groups is None else list(groups)
    by_group = finite_difference_errors(
        lambda: _mean_loss(_recur(work, batch.x, batch.mask)[1], batch.labels),
        {name: (arrays[name], analytic[name]) for name in selected}, epsilon)
    overall = max(by_group.values()) if by_group else 0.0
    return GradCheckReport(overall, by_group, sum(arrays[name].size for name in selected))


def finite_difference_errors(loss, pairs: dict, epsilon: float = 1e-5) -> dict:
    """Worst relative error per name of an analytic gradient against
    central finite differences of loss().

    pairs maps a name to (parameter array, analytic gradient); loss()
    must read the parameter arrays, which are perturbed in place one
    entry at a time and restored. The numeric side is
    Richardson-extrapolated from two central differences (steps epsilon
    and epsilon/2), cancelling the leading truncation term. Relative
    error per component is |a - n| / max(|a| + |n|, 1e-6); the floor
    sits orders of magnitude below any real gradient signal, so
    directions where both sides vanish report ~0 instead of amplifying
    float rounding.
    """
    errors = {}
    for name, (arr, grad) in pairs.items():
        worst = 0.0
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]

            def central(step):
                flat[idx] = original + step
                up = loss()
                flat[idx] = original - step
                down = loss()
                flat[idx] = original
                return (up - down) / (2.0 * step)

            coarse = central(epsilon)
            fine = central(epsilon / 2.0)
            numeric = (4.0 * fine - coarse) / 3.0
            denom = max(abs(gflat[idx]) + abs(numeric), 1e-6)
            worst = max(worst, abs(gflat[idx] - numeric) / denom)
        errors[name] = worst
    return errors


def collect_hidden(params: LSTMParams, sequences):
    """Final and penultimate layer hidden rows for every sequence of a Batch
    (or a list)."""
    states, _ = forward_batch(params, sequences)
    return states.final, states.penultimate
