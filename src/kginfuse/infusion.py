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


def _gate(joint, params: InfusionParams) -> np.ndarray:
    """The gate's one kernel: logistic sigmoid of the affine map of joint,
    h ++ k or a batch of such rows. The map is an einsum, which sums each
    row on its own."""
    return _sigmoid(np.einsum("...k,gk->...g", joint, params.gate_weights) + params.gate_bias)


def _kl(lp, lq) -> float:
    """KL divergence in nats between two log-probability vectors."""
    return float(np.sum(np.exp(lp) * (lp - lq)))


def _kl_gradient(joint, gate, lq):
    """(divergence, dW, db) for a gate that _gate computed from joint, with
    lq = log_softmax(k). The chain runs back through softmax and sigmoid."""
    lp = log_softmax(gate)
    d = _kl(lp, lq)
    dz = np.exp(lp) * (lp - lq - d) * gate * (1.0 - gate)
    return d, np.outer(dz, joint), dz


def kl_divergence(p_raw, q_raw) -> float:
    """KL divergence in nats after softmax-mapping both vectors.

    Zero exactly when the softmaxed vectors coincide; nonnegative always
    (Gibbs). Invariant to adding a constant to either argument.
    """
    p_raw = _check_vector("p", p_raw)
    q_raw = _check_vector("q", q_raw)
    if p_raw.shape != q_raw.shape:
        raise ValidationError("width mismatch")
    return _kl(log_softmax(p_raw), log_softmax(q_raw))


def fuse_step(h, k, params: InfusionParams) -> np.ndarray:
    """Gate: logistic sigmoid of the affine map of h ++ k.

    h is one hidden vector or an (n, d) batch of them, one per row. The
    gate has h's shape; row i is bit-identical to the gate of h[i] alone.
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
    return _gate(np.concatenate([h, np.broadcast_to(k, h.shape)], axis=-1), params)


def gate_gradient(h, knowledge, params: InfusionParams):
    """Exact gradient of the fused divergence w.r.t. the gate parameters.

    The differentiated composite is softmax-KL of fuse_step(h, knowledge)
    against knowledge: affine map, sigmoid, softmax, then KL.
    """
    h = _check_vector("h", h)
    knowledge = _check_vector("knowledge", knowledge)
    d = params.gate_bias.shape[0]
    if not h.shape == knowledge.shape == (d,):
        raise ValidationError(
            f"gate_gradient widths ({h.shape[0]}, {knowledge.shape[0]}) != gate width {d}")
    joint = np.concatenate([h, knowledge])
    return _kl_gradient(joint, _gate(joint, params), log_softmax(knowledge))[1:]


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
    if not h0.shape == h_prev.shape == knowledge.shape == params.gate_bias.shape:
        raise ValidationError(f"width mismatch: vectors {h0.shape[0]}, {h_prev.shape[0]}, "
                              f"{knowledge.shape[0]}; gate {params.gate_bias.shape[0]}")
    if not np.any(knowledge):
        raise InfusionError(
            "knowledge embedding is the zero vector (no resolvable concept "
            "pairs); infusion refused"
        )

    joint = np.concatenate([h0, knowledge])
    lq = log_softmax(knowledge)
    d_prev = _kl(log_softmax(h_prev), lq)
    # The epsilon test lags one step: it reads the divergence from before
    # the latest step, the raw h0's before the first. Accepted steps only
    # widen d_prev - d_cur, so once steps start the bound usually ends it.
    d_tested = _kl(log_softmax(h0), lq)
    work = params.copy()
    trace: list[tuple[float, float]] = []
    exit_reason = "epsilon"
    while d_prev - d_tested > epsilon:
        if len(trace) >= max_inner_iters:
            exit_reason = "iteration_bound"
            break
        d_cur, grad_w, grad_b = _kl_gradient(joint, _gate(joint, work), lq)
        if not np.isfinite(d_cur):
            raise InfusionError(f"non-finite divergence at iteration {len(trace)}; trace={trace}")
        trace.append((d_prev, d_cur))
        step = gate_lr
        for _ in range(_BACKTRACK_LIMIT):
            cand = InfusionParams(work.gate_weights - step * grad_w,
                                  work.gate_bias - step * grad_b)
            if _kl(log_softmax(_gate(joint, cand)), lq) <= d_cur + _ACCEPT_TOL:
                work = cand
                break
            step *= 0.5
        # If no step was accepted the parameters stay put; the loop then
        # idles at a fixed divergence until the epsilon test or the
        # iteration bound fires.
        d_tested = d_cur

    return InfusionResult(len(trace), trace, exit_reason, work)


def trace_csv(traces) -> str:
    """Per-epoch divergence traces as CSV text: epoch, iteration,
    penultimate, current. An epoch that took no step has no row."""
    lines = ["epoch,iteration,d_prev,d_current"]
    for epoch, trace in enumerate(traces, start=1):
        lines.extend(f"{epoch},{i},{dp!r},{dc!r}" for i, (dp, dc) in enumerate(trace, start=1))
    return "\n".join(lines) + "\n"
