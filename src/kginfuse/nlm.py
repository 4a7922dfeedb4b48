"""Many-to-one stacked LSTM classifier with exact backpropagation.

Pure-numpy, float64, deterministic. The last time step's hidden vector
of every layer is exposed so the infusion layer can read the final and
penultimate representations. Gradients are computed analytically and can
be verified against central finite differences.
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

    def parameter_count(self) -> int:
        return sum(arr.size for _, arr in self.named_groups())


@dataclass
class HiddenStates:
    """Per-layer hidden vectors at the final time step."""

    h: list

    @property
    def final(self) -> np.ndarray:
        return self.h[-1]

    @property
    def penultimate(self) -> np.ndarray:
        return self.h[-2]


@dataclass
class TrainConfig:
    epochs: int
    iters: int
    batch_size: int
    lr: float
    clip_norm: float = 5.0
    seed: int = 0

    def validate(self) -> None:
        if min(self.epochs, self.iters, self.batch_size) < 1:
            raise ValidationError("epochs, iters, and batch size must be >= 1")
        if self.lr <= 0 or self.clip_norm <= 0:
            raise ValidationError("learning rate and clip norm must be positive")


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
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def log_softmax(x: np.ndarray) -> np.ndarray:
    shifted = x - np.max(x)
    return shifted - np.log(np.sum(np.exp(shifted)))


def softmax(x: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(x))


def _as_sequence(params: LSTMParams, sequence) -> np.ndarray:
    seq = np.asarray(sequence, dtype=np.float64)
    if seq.ndim == 1:
        seq = seq[None, :]
    if seq.ndim != 2 or seq.shape[0] == 0:
        raise ValidationError("sequence must be a nonempty list of vectors")
    if seq.shape[1] != params.input_width:
        raise ValidationError(
            f"token width {seq.shape[1]} != model input width {params.input_width}"
        )
    return seq


def _forward_cached(params: LSTMParams, seq: np.ndarray):
    """Run the recurrence, keeping everything the backward pass needs."""
    d = params.d
    steps = seq.shape[0]
    cache = []
    inputs = seq
    for l in range(params.layers):
        W, b = params.layer_weights[l], params.layer_biases[l]
        h = np.zeros(d)
        c = np.zeros(d)
        layer = {"x": inputs, "i": [], "f": [], "o": [], "g": [],
                 "c": [], "tanh_c": [], "h": [], "h_prev": [], "c_prev": []}
        outs = np.empty((steps, d))
        for t in range(steps):
            joint = np.concatenate([inputs[t], h])
            z = W @ joint + b
            gi = _sigmoid(z[:d])
            gf = _sigmoid(z[d:2 * d])
            go = _sigmoid(z[2 * d:3 * d])
            gg = np.tanh(z[3 * d:])
            layer["h_prev"].append(h)
            layer["c_prev"].append(c)
            c = gf * c + gi * gg
            tc = np.tanh(c)
            h = go * tc
            layer["i"].append(gi)
            layer["f"].append(gf)
            layer["o"].append(go)
            layer["g"].append(gg)
            layer["c"].append(c)
            layer["tanh_c"].append(tc)
            layer["h"].append(h)
            outs[t] = h
        cache.append(layer)
        inputs = outs
    logits = params.w_out @ cache[-1]["h"][-1] + params.b_out
    return cache, logits


def forward(params: LSTMParams, sequence):
    """Full forward pass; returns final-step hidden states and class probabilities."""
    seq = _as_sequence(params, sequence)
    cache, logits = _forward_cached(params, seq)
    states = HiddenStates(h=[layer["h"][-1].copy() for layer in cache])
    probs = softmax(logits)
    if not np.all(np.isfinite(probs)):
        raise KginfuseError("non-finite values in forward pass")
    return states, probs


def _zero_grads(params: LSTMParams) -> dict:
    return {name: np.zeros_like(arr) for name, arr in params.named_groups()}


def _example_backward(params: LSTMParams, seq: np.ndarray, label: int, grads: dict):
    """Accumulate one example's loss gradient into grads; returns the loss."""
    d = params.d
    steps = seq.shape[0]
    cache, logits = _forward_cached(params, seq)
    logp = log_softmax(logits)
    loss = -logp[label]
    dlogits = np.exp(logp)
    dlogits[label] -= 1.0

    h_last = cache[-1]["h"][-1]
    grads["head.W"] += np.outer(dlogits, h_last)
    grads["head.b"] += dlogits

    dh_above = np.zeros((steps, d))
    dh_above[-1] = params.w_out.T @ dlogits
    for l in range(params.layers - 1, -1, -1):
        layer = cache[l]
        W = params.layer_weights[l]
        in_l = layer["x"].shape[1]
        dx = np.zeros((steps, in_l))
        dh_next = np.zeros(d)
        dc_next = np.zeros(d)
        gW = grads[f"layer{l}.W"]
        gb = grads[f"layer{l}.b"]
        for t in range(steps - 1, -1, -1):
            gi, gf, go, gg = layer["i"][t], layer["f"][t], layer["o"][t], layer["g"][t]
            tc = layer["tanh_c"][t]
            dh = dh_above[t] + dh_next
            do = dh * tc
            dc = dc_next + dh * go * (1.0 - tc * tc)
            di = dc * gg
            dg = dc * gi
            df = dc * layer["c_prev"][t]
            dz = np.concatenate([
                di * gi * (1.0 - gi),
                df * gf * (1.0 - gf),
                do * go * (1.0 - go),
                dg * (1.0 - gg * gg),
            ])
            joint = np.concatenate([layer["x"][t], layer["h_prev"][t]])
            gW += np.outer(dz, joint)
            gb += dz
            djoint = W.T @ dz
            dx[t] = djoint[:in_l]
            dh_next = djoint[in_l:]
            dc_next = dc * gf
        dh_above = dx if l > 0 else dh_above
    return float(loss)


def batch_gradients(params: LSTMParams, batch):
    """Mean cross-entropy loss and its exact gradient over a batch.

    batch is a list of (sequence, class_index) pairs. No clipping here;
    train_step applies the clip.
    """
    if not batch:
        raise ValidationError("batch is empty")
    grads = _zero_grads(params)
    total = 0.0
    for sequence, label in batch:
        seq = _as_sequence(params, sequence)
        if not 0 <= label < params.n_classes:
            raise ValidationError(f"label index {label} out of range")
        # Fresh buffer per example, reduced afterwards: batch members are
        # independent (parallelizable) and the mean is exactly linear.
        example_grads = _zero_grads(params)
        total += _example_backward(params, seq, label, example_grads)
        for name in grads:
            grads[name] += example_grads[name]
    scale = 1.0 / len(batch)
    for name in grads:
        grads[name] *= scale
    loss = total * scale
    if not np.isfinite(loss):
        raise KginfuseError(f"non-finite training loss: {loss!r}")
    return loss, grads


def clip_gradients(grads: dict, max_norm: float) -> float:
    """Scale gradients in place to the global norm bound; returns the raw norm."""
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    if max_norm > 0 and total > max_norm:
        factor = max_norm / total
        for g in grads.values():
            g *= factor
    return total


def train_step(params: LSTMParams, batch, lr: float, clip_norm: float = 5.0):
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
    """Compare analytic gradients to central finite differences.

    The numeric side is Richardson-extrapolated from two central
    differences (steps epsilon and epsilon/2), cancelling the leading
    truncation term. Relative error per component is
    |a - n| / max(|a| + |n|, 1e-6); the floor sits orders of magnitude
    below any real gradient signal, so directions where both sides
    vanish report ~0 instead of amplifying float rounding. Intended for
    small models (a few thousand parameters).
    """
    _, analytic = batch_gradients(params, batch)
    work = params.copy()
    arrays = dict(work.named_groups())
    selected = list(arrays) if groups is None else list(groups)
    by_group = {}
    count = 0
    for name in selected:
        arr = arrays[name]
        grad = analytic[name]
        worst = 0.0
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for idx in range(flat.size):
            original = flat[idx]

            def central(step):
                flat[idx] = original + step
                up = _batch_loss_only(work, batch)
                flat[idx] = original - step
                down = _batch_loss_only(work, batch)
                flat[idx] = original
                return (up - down) / (2.0 * step)

            coarse = central(epsilon)
            fine = central(epsilon / 2.0)
            numeric = (4.0 * fine - coarse) / 3.0
            denom = max(abs(gflat[idx]) + abs(numeric), 1e-6)
            worst = max(worst, abs(gflat[idx] - numeric) / denom)
        by_group[name] = worst
        count += flat.size
    overall = max(by_group.values()) if by_group else 0.0
    return GradCheckReport(overall, by_group, count)


def _batch_loss_only(params: LSTMParams, batch) -> float:
    total = 0.0
    for sequence, label in batch:
        seq = _as_sequence(params, sequence)
        _, logits = _forward_cached(params, seq)
        total += -log_softmax(logits)[label]
    return total / len(batch)


def collect_hidden(params: LSTMParams, sequences):
    """Final and penultimate layer hidden vectors for every sequence."""
    finals = np.empty((len(sequences), params.d))
    penults = np.empty((len(sequences), params.d))
    for i, sequence in enumerate(sequences):
        states, _ = forward(params, sequence)
        finals[i] = states.final
        penults[i] = states.penultimate
    return finals, penults
