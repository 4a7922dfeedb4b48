"""Knowledge infusion layer: divergence utilities, the fusion gate, and
the inner infusion loop.

Hidden vectors and the knowledge embedding are not probability
distributions, so every divergence here maps its arguments onto the
simplex with a softmax first. The inner loop trains only the fusion
parameters; the recurrent network's weights are never touched. Each
accepted step is guarded by a backtracking halving of the step size, so
the recorded divergence trace is monotone non-increasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfusionError, ValidationError
from .nlm import _sigmoid, log_softmax

_BACKTRACK_LIMIT = 20
_ACCEPT_TOL = 1e-12


@dataclass
class InfusionParams:
    """Fusion gate weights plus the inner-loop hyperparameters."""

    gate_weights: np.ndarray
    gate_bias: np.ndarray
    gate_lr: float = 0.1
    epsilon: float = 1e-4
    max_inner_iters: int = 50

    def validate(self) -> None:
        d = self.gate_bias.shape[0]
        if self.gate_weights.shape != (d, 2 * d):
            raise ValidationError(
                f"fusion weight shape {self.gate_weights.shape} != ({d}, {2 * d})"
            )
        if self.gate_lr <= 0 or self.epsilon <= 0 or self.max_inner_iters < 1:
            raise ValidationError("gate_lr, epsilon must be positive; max_inner_iters >= 1")
        if not (np.all(np.isfinite(self.gate_weights)) and np.all(np.isfinite(self.gate_bias))):
            raise ValidationError("non-finite fusion parameters")

    def copy(self) -> "InfusionParams":
        return InfusionParams(self.gate_weights.copy(), self.gate_bias.copy(),
                              self.gate_lr, self.epsilon, self.max_inner_iters)

    @classmethod
    def init(cls, d: int, rng: np.random.Generator, gate_lr: float = 0.1,
             epsilon: float = 1e-4, max_inner_iters: int = 50) -> "InfusionParams":
        bound = 1.0 / np.sqrt(2 * d)
        return cls(
            gate_weights=rng.uniform(-bound, bound, size=(d, 2 * d)),
            gate_bias=np.zeros(d),
            gate_lr=gate_lr,
            epsilon=epsilon,
            max_inner_iters=max_inner_iters,
        )


@dataclass
class InfusionResult:
    """Outcome of one infusion run."""

    modulated: np.ndarray
    inner_iterations: int
    divergence_trace: list
    exit_reason: str
    params: InfusionParams
    gate: np.ndarray = field(default=None)


def _check_vector(name: str, v) -> np.ndarray:
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise ValidationError(f"{name} must be a vector")
    if not np.all(np.isfinite(arr)):
        raise InfusionError(f"non-finite values in {name}")
    return arr


def kl_divergence(p_raw, q_raw) -> float:
    """KL divergence in nats after softmax-mapping both vectors.

    Zero exactly when the softmaxed vectors coincide; nonnegative always
    (Gibbs). Invariant to adding a constant to either argument.
    """
    p_raw = _check_vector("p", p_raw)
    q_raw = _check_vector("q", q_raw)
    if p_raw.shape != q_raw.shape:
        raise ValidationError("width mismatch")
    lp = log_softmax(p_raw)
    lq = log_softmax(q_raw)
    return float(np.sum(np.exp(lp) * (lp - lq)))


def fuse_step(h, k, params: InfusionParams) -> np.ndarray:
    """Gate: logistic sigmoid of the affine map of h ++ k.

    h is one hidden vector or an (n, d) batch of them, one per row. The
    gate has h's shape; row i equals the gate of h[i] alone up to float
    summation order.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim not in (1, 2):
        raise ValidationError("h must be a vector or a batch of row vectors")
    if not np.all(np.isfinite(h)):
        raise InfusionError("non-finite values in h")
    k = _check_vector("k", k)
    d = params.gate_bias.shape[0]
    if h.shape[-1] != d or k.shape[0] != d:
        raise ValidationError(
            f"fuse_step widths ({h.shape[-1]}, {k.shape[0]}) != gate width {d}"
        )
    joint = np.concatenate([h, np.broadcast_to(k, h.shape)], axis=-1)
    return _sigmoid(joint @ params.gate_weights.T + params.gate_bias)


def gate_gradient(h, knowledge, params: InfusionParams):
    """Exact gradient of the fused divergence w.r.t. the gate parameters.

    The differentiated composite is softmax-KL of fuse_step(h, knowledge)
    against knowledge: affine map, sigmoid, softmax, then KL.
    """
    h = _check_vector("h", h)
    knowledge = _check_vector("knowledge", knowledge)
    u = np.concatenate([h, knowledge])
    z = params.gate_weights @ u + params.gate_bias
    a = _sigmoid(z)
    lp = log_softmax(a)
    lq = log_softmax(knowledge)
    p = np.exp(lp)
    r = lp - lq
    da = p * (r - float(p @ r))
    dz = da * a * (1.0 - a)
    return np.outer(dz, u), dz


def modulate(h, gate) -> np.ndarray:
    """Elementwise product of a hidden vector with a gate."""
    h = _check_vector("h", h)
    gate = _check_vector("gate", gate)
    if h.shape != gate.shape:
        raise ValidationError("width mismatch")
    return h * gate


def knowledge_infusion(h_final, h_prev, knowledge, params: InfusionParams) -> InfusionResult:
    """Inner infusion loop; returns the knowledge-modulated representation.

    While the penultimate layer's divergence from the knowledge embedding
    exceeds the current one by more than epsilon, the gate parameters take
    a backtracked gradient step on the fused divergence. The modulated
    output gates the original hidden vector with the final fused gate.
    """
    params.validate()
    h0 = _check_vector("h_final", h_final)
    h_prev = _check_vector("h_prev", h_prev)
    knowledge = _check_vector("knowledge", knowledge)
    if not h0.shape == h_prev.shape == knowledge.shape:
        raise ValidationError("width mismatch")
    if not np.any(knowledge):
        raise InfusionError(
            "knowledge embedding is the zero vector (no resolvable concept "
            "pairs); infusion refused"
        )

    work = params.copy()
    d_prev = kl_divergence(h_prev, knowledge)
    trace: list[tuple[float, float]] = []
    h_cur = h0
    iterations = 0
    exit_reason = "iteration_bound"
    while True:
        if d_prev - kl_divergence(h_cur, knowledge) <= work.epsilon:
            exit_reason = "epsilon"
            break
        if iterations >= work.max_inner_iters:
            exit_reason = "iteration_bound"
            break
        h_cur = fuse_step(h0, knowledge, work)
        d_cur = kl_divergence(h_cur, knowledge)
        if not np.isfinite(d_cur):
            raise InfusionError(f"non-finite divergence at iteration {iterations}; trace={trace}")
        trace.append((d_prev, d_cur))
        iterations += 1

        grad_w, grad_b = gate_gradient(h0, knowledge, work)
        step = work.gate_lr
        for _ in range(_BACKTRACK_LIMIT):
            cand = work.copy()
            cand.gate_weights -= step * grad_w
            cand.gate_bias -= step * grad_b
            if kl_divergence(fuse_step(h0, knowledge, cand), knowledge) <= d_cur + _ACCEPT_TOL:
                work = cand
                break
            step *= 0.5
        # If no step was accepted the parameters stay put; the loop then
        # idles at a fixed divergence until the epsilon test or the
        # iteration bound fires.

    gate = fuse_step(h0, knowledge, work)
    modulated = modulate(h0, gate)
    if not np.all(np.isfinite(modulated)):
        raise InfusionError(f"non-finite modulated output; trace={trace}")
    return InfusionResult(
        modulated=modulated,
        inner_iterations=iterations,
        divergence_trace=trace,
        exit_reason=exit_reason,
        params=work,
        gate=gate,
    )


def trace_csv(trace) -> str:
    """Divergence trace as CSV text: iteration, penultimate, current."""
    lines = ["iteration,d_prev,d_current"]
    for i, (dp, dc) in enumerate(trace, start=1):
        lines.append(f"{i},{dp!r},{dc!r}")
    return "\n".join(lines) + "\n"
