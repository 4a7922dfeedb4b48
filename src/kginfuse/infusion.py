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

from dataclasses import dataclass

import numpy as np

from .errors import InfusionError, ValidationError
from .nlm import _sigmoid, finite_difference_errors, log_softmax

_BACKTRACK_LIMIT = 20
_ACCEPT_TOL = 1e-12


@dataclass
class InfusionParams:
    """The fusion gate: weights (d, 2d) over hidden ++ knowledge and a (d,)
    bias. The inner loop's settings come from the [infusion] config section
    and are passed to knowledge_infusion; the gate holds none of them."""

    gate_weights: np.ndarray
    gate_bias: np.ndarray

    def validate(self) -> None:
        d = self.gate_bias.shape[0]
        if self.gate_weights.shape != (d, 2 * d):
            raise ValidationError(
                f"fusion weight shape {self.gate_weights.shape} != ({d}, {2 * d})"
            )
        if not (np.all(np.isfinite(self.gate_weights)) and np.all(np.isfinite(self.gate_bias))):
            raise ValidationError("non-finite fusion parameters")

    def copy(self) -> "InfusionParams":
        return InfusionParams(self.gate_weights.copy(), self.gate_bias.copy())

    @classmethod
    def init(cls, d: int, rng: np.random.Generator) -> "InfusionParams":
        bound = 1.0 / np.sqrt(2 * d)
        return cls(
            gate_weights=rng.uniform(-bound, bound, size=(d, 2 * d)),
            gate_bias=np.zeros(d),
        )


@dataclass
class InfusionResult:
    """Outcome of one infusion run: the trained gate and how the loop ran."""

    inner_iterations: int
    divergence_trace: list
    exit_reason: str
    params: InfusionParams


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
    gate has h's shape; row i is bit-identical to the gate of h[i] alone,
    since the affine map is an einsum, which sums each row on its own.
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
    return _sigmoid(np.einsum("...k,gk->...g", joint, params.gate_weights) + params.gate_bias)


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


def gradient_check(h, k, params: InfusionParams) -> float:
    """Worst relative error of gate_gradient against finite differences
    (nlm.finite_difference_errors) over every gate parameter."""
    work = params.copy()
    grad_w, grad_b = gate_gradient(h, k, work)
    errors = finite_difference_errors(
        lambda: kl_divergence(fuse_step(h, k, work), k),
        {"W": (work.gate_weights, grad_w), "b": (work.gate_bias, grad_b)})
    return max(errors.values())


def knowledge_infusion(h_final, h_prev, knowledge, params: InfusionParams, *,
                       gate_lr: float, epsilon: float, max_inner_iters: int) -> InfusionResult:
    """Inner infusion loop; returns the trained gate and the loop's trace.

    While the penultimate layer's divergence from the knowledge embedding
    exceeds the current one by more than epsilon, and fewer than
    max_inner_iters steps have run, the gate parameters take a gradient
    step of size gate_lr on the fused divergence, halved until it does
    not increase the divergence. The caller applies the returned gate
    with fuse_step.
    """
    params.validate()
    if gate_lr <= 0 or epsilon <= 0 or max_inner_iters < 1:
        raise ValidationError("gate_lr, epsilon must be positive; max_inner_iters >= 1")
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
        if d_prev - kl_divergence(h_cur, knowledge) <= epsilon:
            exit_reason = "epsilon"
            break
        if iterations >= max_inner_iters:
            exit_reason = "iteration_bound"
            break
        h_cur = fuse_step(h0, knowledge, work)
        d_cur = kl_divergence(h_cur, knowledge)
        if not np.isfinite(d_cur):
            raise InfusionError(f"non-finite divergence at iteration {iterations}; trace={trace}")
        trace.append((d_prev, d_cur))
        iterations += 1

        grad_w, grad_b = gate_gradient(h0, knowledge, work)
        step = gate_lr
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

    return InfusionResult(
        inner_iterations=iterations,
        divergence_trace=trace,
        exit_reason=exit_reason,
        params=work,
    )


def trace_csv(trace) -> str:
    """Divergence trace as CSV text: iteration, penultimate, current."""
    lines = ["iteration,d_prev,d_current"]
    for i, (dp, dc) in enumerate(trace, start=1):
        lines.append(f"{i},{dp!r},{dc!r}")
    return "\n".join(lines) + "\n"
