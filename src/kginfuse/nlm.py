"""Many-to-one stacked LSTM classifier with exact backpropagation.

Pure-numpy, float64, deterministic. The last time step's hidden vector
of every layer is exposed so the infusion layer can read the final and
penultimate representations. Gradients are computed analytically and can
be verified against central finite differences.

One kernel serves training, hidden-state collection, the gradient
check's loss and prediction: the recurrence runs over a time-major
zero-padded batch with a length mask; one sequence is a batch of one.
It works on hidden rows only: head_logits forms every logit row, and the
backward pass enters at a gradient on the top layer's final hidden rows.
Its time loops hold only the recurrence; what does not depend on it
(the gate-derivative factors, the weight gradient) is formed over all
steps at once. Every per-row product is one BLAS vector-matrix product
per row (a stacked np.matmul), so a row's values depend only on that row;
the weight gradient, a sum over the batch, is one batched matmul.
Every entry point takes that padded Batch, which the pipeline gathers
straight from its encoded dataset; Batch.of pads a list of (steps, width)
arrays into one.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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
        return replace(self, layer_weights=[w.copy() for w in self.layer_weights],
                       layer_biases=[b.copy() for b in self.layer_biases],
                       w_out=self.w_out.copy(), b_out=self.b_out.copy())


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

    @classmethod
    def of(cls, sequences, labels=None) -> "Batch":
        """The Batch of a list of (steps, width) arrays, zero-padded to the
        longest, with labels (one class index per sequence) if given."""
        seqs = [np.asarray(s, dtype=np.float64) for s in sequences]
        if not seqs:
            raise ValidationError("batch is empty")
        if any(s.ndim != 2 or s.shape[0] == 0 for s in seqs):
            raise ValidationError("every sequence must be a nonempty (steps, width) array")
        if len({s.shape[1] for s in seqs}) != 1:
            raise ValidationError("sequences differ in width")
        if labels is not None and len(labels) != len(seqs):
            raise ValidationError(f"{len(labels)} labels for {len(seqs)} sequences")
        lengths = np.array([len(s) for s in seqs])
        mask = np.arange(lengths.max())[:, None] < lengths
        x = np.zeros(mask.shape + (seqs[0].shape[1],))
        x.transpose(1, 0, 2)[mask.T] = np.concatenate(seqs)
        return cls(x, mask, None if labels is None else np.array(labels))


def _check(params: LSTMParams, batch: Batch, labelled: bool = False) -> None:
    """Raise ValidationError unless batch fits the model: its width and,
    when labelled, its class indices."""
    if batch.x.shape[-1] != params.input_width:
        raise ValidationError(f"token width {batch.x.shape[-1]} != model input width "
                              f"{params.input_width}")
    if labelled:
        if batch.labels is None:
            raise ValidationError("batch has no labels")
        bad = batch.labels[(batch.labels < 0) | (batch.labels >= params.n_classes)]
        if bad.size:
            raise ValidationError(f"label index {bad[0]} out of range")


def _idle_rows(mask: np.ndarray) -> list:
    """Per step, None when every row is live, else the (B, 1) column that
    is True on the rows already past their sequence's end."""
    return [None if every else ~live[:, None] for every, live in zip(mask.all(axis=1), mask)]


def head_logits(h: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The logit rows (B, n) of hidden rows h (B, d) under a head w (n, d), b (n,)."""
    return np.einsum("bd,nd->bn", h, w) + b


def _recur(params: LSTMParams, x: np.ndarray, mask: np.ndarray, cache=None) -> list:
    """The batched recurrence over a padded batch; returns each layer's final
    hidden rows (B, d). The head is not applied here (head_logits).

    Each layer runs in one time-major joint buffer J (T + 1, B, in + d):
    J[t] is step t's input beside the hidden state the step starts from,
    so the inputs are copied in once and each step writes its h into the
    tail of J[t + 1]. One tanh serves all four gates: the sigmoid blocks'
    weight rows and biases are halved once per call (W_half), and their
    tanh is mapped by t * 0.5 + 0.5, which, halving being exact, equals
    _sigmoid's 0.5 * (1 + t) to the bit. The bias, the scale and the
    offset are tiled to (B, 4d), so each of these operations runs over
    whole contiguous arrays. Past a sequence's end (mask False) its h
    carries forward unchanged, so its final row is its state at its last
    step; a step where every row is live skips the carry. Its c runs on
    unread: padding only follows a sequence's end, and _backprop zeroes
    dz at masked steps. A step's product stacks the (1, in + d) rows of
    J[t] against W_half.T: numpy runs each row as its own BLAS
    vector-matrix product of the same shape, so a row's values do not
    depend on what else is in the batch. One matrix-matrix product per
    step would not do: numpy sends a one-row product to gemv and a
    many-row one to gemm, and the two sum in different orders. Given a
    list as cache, each layer appends its stacks (J, gates, c, tanh(c))
    for backpropagation: gates (T, B, 4d) holds the input, forget and
    output sigmoids and the modulation tanh, c (T + 1, B, d) the cell
    state before the first step and after each.
    """
    d = params.d
    steps, rows = mask.shape
    idle = _idle_rows(mask)
    # Steps whose gates and cell states are stored: all for backpropagation,
    # else one reused slot (two for c), sparing the stacks' fresh memory.
    kept = steps if cache is not None else 1
    scale = np.ones((rows, 4 * d))
    scale[:, :3 * d] = 0.5
    offset = 1.0 - scale
    finals = []
    inputs = x
    for W, b in zip(params.layer_weights, params.layer_biases):
        in_l = W.shape[1] - d
        J = np.zeros((steps + 1, rows, in_l + d))
        J[:steps, :, :in_l] = inputs
        H = J[:, :, in_l:]
        gates = np.empty((kept, rows, 4 * d))
        C = np.zeros((kept + 1, rows, d))
        TC = np.empty((kept, rows, d))
        W_half = W * scale[0, :, None]
        bias = np.tile(b * scale[0], (rows, 1))
        for t in range(steps):
            a, tc = gates[t % kept], TC[t % kept]
            c, c_new = C[t % (kept + 1)], C[(t + 1) % (kept + 1)]
            np.matmul(J[t][:, None, :], W_half.T, out=a[:, None, :])
            a += bias
            np.tanh(a, out=a)
            a *= scale
            a += offset
            np.multiply(a[:, d:2 * d], c, out=c_new)
            c_new += a[:, :d] * a[:, 3 * d:]
            np.tanh(c_new, out=tc)
            np.multiply(a[:, 2 * d:3 * d], tc, out=H[t + 1])
            if idle[t] is not None:
                np.copyto(H[t + 1], H[t], where=idle[t])
        if cache is not None:
            cache.append((J, gates, C, TC))
        finals.append(np.ascontiguousarray(H[steps]))  # not a view pinning J
        inputs = H[1:]
    return finals


def _reverse_sum(terms: np.ndarray) -> np.ndarray:
    """terms[-1] + terms[-2] + ... + terms[0], added in that order."""
    total = terms[-1].copy()
    for term in terms[-2::-1]:
        total += term
    return total


def _backprop(params: LSTMParams, cache: list, mask: np.ndarray, dh_last: np.ndarray) -> dict:
    """The layer groups' gradients of a batch loss, given dh_last, its
    gradient (B, d) w.r.t. the top layer's final hidden rows; the head's
    gradients, when the loss has a head, are the caller's.

    The step-local factors, go * (1 - tanh(c)^2) and the four gate
    derivatives, are formed for all steps at once, so the reverse time
    loop holds only the recurrence: dh, dc, the gate gradient dz and one
    product of dz with W, which yields both the next step's dh and this
    step's input gradient; like _recur's, it is one BLAS vector-matrix
    product per row. dz is 0 at masked steps, and dh and dc pass back
    through them unchanged: dh mirrors the forward h carry, and dc stays
    0 until the sequence's last step.
    The weight gradient sums over the batch, so it is one batched BLAS
    matmul over all steps, whose per-step terms are then added in reverse
    time order; the bias gradient sums dz the same way.
    """
    d = params.d
    steps, rows = mask.shape
    idle = _idle_rows(mask)
    grads = {}
    dh_above = np.zeros((steps, rows, d))
    dh_above[-1] = dh_last
    for l in range(params.layers - 1, -1, -1):
        W = params.layer_weights[l]
        in_l = W.shape[1] - d
        J, gates, C, TC = cache[l]
        gi, gf, gg = gates[..., :d], gates[..., d:2 * d], gates[..., 3 * d:]
        sig = gates[..., :3 * d]
        out_path = gates[..., 2 * d:3 * d] * (1.0 - TC * TC)
        factors = np.empty_like(gates)
        factors[..., :3 * d] = sig * (1.0 - sig) * np.concatenate([gg, C[:-1], TC], axis=-1)
        factors[..., 3 * d:] = gi * (1.0 - gg * gg)
        DZ = np.empty_like(gates)
        DJ = np.empty((steps, rows, in_l + d))
        dh_next = np.zeros((rows, d))
        dc_next = np.zeros((rows, d))
        for t in range(steps - 1, -1, -1):
            dh = dh_above[t] + dh_next
            dc = dc_next + dh * out_path[t]
            np.multiply(np.concatenate([dc, dc, dh, dc], axis=1), factors[t], out=DZ[t])
            if idle[t] is not None:
                np.copyto(DZ[t], 0.0, where=idle[t])
            np.matmul(DZ[t][:, None, :], W, out=DJ[t][:, None, :])
            dh_next, dc_back = DJ[t, :, in_l:], dc * gf[t]
            if idle[t] is not None:
                np.copyto(dh_next, dh, where=idle[t])
                np.copyto(dc_back, dc_next, where=idle[t])
            dc_next = dc_back
        grads[f"layer{l}.W"] = _reverse_sum(np.matmul(DZ.transpose(0, 2, 1), J[:steps]))
        grads[f"layer{l}.b"] = _reverse_sum(DZ.sum(axis=1))
        dh_above = DJ[:, :, :in_l]
    return grads


def forward_batch(params: LSTMParams, batch: Batch):
    """Full forward pass of a Batch: the list of every layer's final-step
    hidden rows (B, d) and the class probabilities (B, n_classes). Row i
    depends only on sequence i."""
    _check(params, batch)
    finals = _recur(params, batch.x, batch.mask)
    probs = softmax(head_logits(finals[-1], params.w_out, params.b_out))
    if not np.all(np.isfinite(probs)):
        raise KginfuseError("non-finite values in forward pass")
    return finals, probs


def _mean_loss(logits: np.ndarray, labels: np.ndarray) -> float:
    return float(-np.mean(log_softmax(logits)[np.arange(len(labels)), labels]))


def batch_gradients(params: LSTMParams, batch: Batch):
    """Mean cross-entropy loss and its exact gradient over a labelled Batch.
    No clipping here; train_step applies the clip."""
    _check(params, batch, labelled=True)
    labels = batch.labels
    cache = []
    h_last = _recur(params, batch.x, batch.mask, cache)[-1]
    logits = head_logits(h_last, params.w_out, params.b_out)
    loss = _mean_loss(logits, labels)
    if not np.isfinite(loss):
        raise KginfuseError(f"non-finite training loss: {loss!r}")
    dlogits = softmax(logits)
    dlogits[np.arange(len(labels)), labels] -= 1.0
    summed = _backprop(params, cache, batch.mask, np.einsum("bn,nd->bd", dlogits, params.w_out))
    summed["head.W"] = np.einsum("bn,bd->nd", dlogits, h_last)
    summed["head.b"] = dlogits.sum(axis=0)
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


def train_step(params: LSTMParams, batch: Batch, lr: float, clip_norm: float):
    """One SGD step on the mean cross-entropy; returns (new params, loss)."""
    loss, grads = batch_gradients(params, batch)
    clip_gradients(grads, clip_norm)
    out = params.copy()
    for name, arr in out.named_groups():
        arr -= lr * grads[name]
    return out, loss


@dataclass
class GradCheckReport:
    max_relative_error: float
    by_group: dict
    parameter_count: int


def gradient_check(params: LSTMParams, batch: Batch, epsilon: float = 1e-5,
                   groups=None) -> GradCheckReport:
    """finite_difference_errors of a labelled Batch's loss over the named
    groups (all by default); intended for small models (a few thousand
    parameters)."""
    _, analytic = batch_gradients(params, batch)
    work = params.copy()
    arrays = dict(work.named_groups())
    selected = list(arrays) if groups is None else list(groups)
    by_group = finite_difference_errors(
        lambda: _mean_loss(head_logits(_recur(work, batch.x, batch.mask)[-1], work.w_out,
                                       work.b_out), batch.labels),
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


def collect_hidden(params: LSTMParams, batch: Batch):
    """Final and penultimate layer hidden rows for every sequence of a Batch."""
    finals, _ = forward_batch(params, batch)
    return finals[-1], finals[-2]
