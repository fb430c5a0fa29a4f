"""Small dense networks in numpy with exact gradients.

Everything the trainer and the analysis need from a network lives here:
forward evaluation, reverse-mode gradients with respect to parameters and
inputs, reverse-accumulated input Jacobians (at one input, or stacked over
many), Adam steps guarded by global-norm clipping, and Polyak target
updates.

One forward loop, over leading axes, runs a network on a vector or rows,
a team stacked by MlpParams.stack, and the Jacobian pass's one-row stack;
one pull-back loop (_to_input) serves input_gradient and input_jacobians.

Precision follows the operands. A pass over float32 weights and a float32
input runs in float32; lists, integers and float64 arrays are taken as
float64, and float64 wins any mix. Training is float32: networks, Adam
moments and batches. Acting, the Jacobian analysis and checkpoints use
float64 widenings of those weights (MlpParams.astype), which are exact.

A network is a list of (W, b) layers. Hidden layers use ReLU; the head is
either linear (value heads) or softmax (action heads). Softmax outputs are
differentiated through the full Jacobian S = diag(p) - p p^T, not just the
diagonal. Hidden ReLUs are applied in place, so a forward cache holds each
layer's activation and only the head's pre-activation; the backward passes
take every ReLU mask from the activation, since max(z, 0) > 0 exactly when
z > 0 (also at -0.0 and NaN).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal, Sequence

import numpy as np

Head = Literal["linear", "softmax"]


class TrainingDiverged(RuntimeError):
    """Raised when a gradient or parameter stops being finite."""


@dataclass
class MlpParams:
    weights: list[np.ndarray]  # layer l: (fan_out, fan_in); stacked (n, ...)
    biases: list[np.ndarray]  # layer l: (fan_out,); stacked (n, 1, fan_out)
    head: Head = "linear"

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def in_dim(self) -> int:
        return self.weights[0].shape[-1]

    @property
    def out_dim(self) -> int:
        return self.weights[-1].shape[-2]

    @classmethod
    def stack(cls, nets: Sequence["MlpParams"]) -> "MlpParams":
        """Same-shaped nets as one: forward runs member i on rows [..., i, :,
        :]. A copy of the weights, stale once a member changes."""
        return cls([np.stack(ws) for ws in zip(*(p.weights for p in nets))],
                   [np.stack(bs)[:, None, :]
                    for bs in zip(*(p.biases for p in nets))], nets[0].head)

    def copy(self) -> "MlpParams":
        return MlpParams([w.copy() for w in self.weights],
                         [b.copy() for b in self.biases], self.head)

    def astype(self, dtype) -> "MlpParams":
        """The network in dtype; arrays that already have it are shared."""
        return MlpParams([w.astype(dtype, copy=False) for w in self.weights],
                         [b.astype(dtype, copy=False) for b in self.biases],
                         self.head)

    def flatten(self) -> np.ndarray:
        return np.concatenate([a.ravel() for pair in zip(self.weights, self.biases)
                               for a in pair])

    def assign_flat(self, flat: np.ndarray) -> None:
        need = sum(w.size + b.size for w, b in zip(self.weights, self.biases))
        if flat.size != need:
            raise ValueError(f"flat vector has {flat.size} entries, "
                             f"network needs {need}")
        k = 0
        for w, b in zip(self.weights, self.biases):
            w[...] = flat[k:k + w.size].reshape(w.shape)
            k += w.size
            b[...] = flat[k:k + b.size]
            k += b.size


def init_params(in_dim: int, hidden: Sequence[int], out_dim: int, head: Head,
                rng: np.random.Generator) -> MlpParams:
    """Uniform(-1/sqrt(fan_in), 1/sqrt(fan_in)) weights and biases."""
    dims = [in_dim, *hidden, out_dim]
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_out, fan_in)))
        biases.append(rng.uniform(-bound, bound, size=fan_out))
    return MlpParams(weights, biases, head)


def _as_float(x) -> np.ndarray:
    """x as a float array: float32 stays float32, anything else float64."""
    x = np.asarray(x)
    return x if x.dtype == np.float32 else x.astype(float, copy=False)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def forward(params: MlpParams, x: np.ndarray,
            return_cache: bool = False):
    """Evaluate the network on a vector (in_dim,) or on rows (..., m, in_dim).

    A vector runs as one (1, in_dim) row. Leading axes broadcast against a
    stacked network's (MlpParams.stack); each layer's matmul runs the same
    2-D product on every (m, in_dim) slice.

    With return_cache=True also returns what the backward passes need: the
    layer activations (input first, output last) and the head's
    pre-activation (the logits under a softmax head).
    """
    x = _as_float(x)
    squeeze = x.ndim == 1
    h = x.reshape(1, -1) if squeeze else x
    if h.shape[-1] != params.in_dim:
        raise ValueError(f"input dim {h.shape[-1]} does not match network "
                         f"in_dim {params.in_dim}")
    acts = [h]
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(h, w.swapaxes(-1, -2))
        z += b
        if l < params.n_layers - 1:
            h = np.maximum(z, 0.0, out=z)
        elif params.head == "softmax":
            h = _softmax(z)
        else:
            h = z
        acts.append(h)
    out = h[0] if squeeze else h
    if return_cache:
        return out, (acts, z, squeeze)
    return out


def _head_vjp(params: MlpParams, upstream: np.ndarray,
              out: np.ndarray) -> np.ndarray:
    """Pull upstream cotangent back through the head nonlinearity."""
    if params.head == "softmax":
        # g_z = S^T u with S = diag(p) - p p^T (symmetric)
        dot = (upstream * out).sum(axis=-1, keepdims=True)
        return out * (upstream - dot)
    return upstream


def _head_grad(params: MlpParams, x: np.ndarray, upstream: np.ndarray,
               cache):
    """Head cotangent plus the layer activations it flows back through.

    cache is what forward(params, x, return_cache=True) returned for this x;
    without one the forward runs here.
    """
    if cache is None:
        cache = forward(params, x, return_cache=True)
    out, (acts, _logits, squeeze) = cache
    u = _as_float(upstream)
    if squeeze:
        u = u.reshape(1, -1)
        out = out.reshape(1, -1)
    return _head_vjp(params, u, out), acts, squeeze


def backward_params(params: MlpParams, x: np.ndarray,
                    upstream: np.ndarray, cache=None) -> "MlpParams":
    """Gradient of sum_batch <upstream, f(x)> w.r.t. every weight and bias.

    upstream has the same shape as forward(params, x); batch rows are summed,
    matching the mean-loss convention when the caller pre-divides by m.
    Passing the cache of forward(params, x, return_cache=True) skips the
    forward pass.
    """
    g, acts, _squeeze = _head_grad(params, x, upstream, cache)
    grads_w: list[np.ndarray] = [None] * params.n_layers  # type: ignore
    grads_b: list[np.ndarray] = [None] * params.n_layers  # type: ignore
    for l in range(params.n_layers - 1, -1, -1):
        grads_w[l] = g.T @ acts[l]
        grads_b[l] = g.sum(axis=0)
        if l > 0:
            g = g @ params.weights[l]
            g *= acts[l] > 0.0
    return MlpParams(grads_w, grads_b, params.head)


def _to_input(params: MlpParams, g: np.ndarray, acts) -> np.ndarray:
    """Pull g, a fresh array of cotangents of acts[-2] (the last hidden
    activation, or the input), back to the input through each ReLU mask."""
    for l in range(params.n_layers - 1, 0, -1):
        g *= acts[l] > 0.0
        g = np.matmul(g, params.weights[l - 1])
    return g


def input_gradient(params: MlpParams, x: np.ndarray,
                   upstream: np.ndarray, cache=None) -> np.ndarray:
    """Gradient of <upstream, f(x)> w.r.t. x; batched rows stay independent.

    Passing the cache of forward(params, x, return_cache=True) skips the
    forward pass.
    """
    g, acts, squeeze = _head_grad(params, x, upstream, cache)
    g = _to_input(params, g @ params.weights[-1], acts)
    return g[0] if squeeze else g


def input_jacobian(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """Exact Jacobian df/dx at one input: input_jacobians' one-row case."""
    if np.ndim(x) != 1:
        raise ValueError("input_jacobian expects a single input vector")
    return input_jacobians(params, np.asarray(x)[None])[0]


def input_jacobians(params: MlpParams, xs: np.ndarray) -> np.ndarray:
    """input_jacobian at every row of xs (T, in_dim): shape (T, out, in_dim).

    Reverse accumulation, whose cost follows the 5 action outputs, not the
    18-20 inputs: one forward over the rows stacked as (T, 1, in_dim)
    keeps each hidden activation, then the head's Jacobian (S W_L under
    softmax, else W_L) goes down the layers as jac <- (jac * mask_l) @ W_l.
    Every product is the per-step 2-D one, so slice t does not depend on T.
    """
    xs = np.ascontiguousarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != params.in_dim:
        raise ValueError(f"inputs of shape {xs.shape} do not stack "
                         f"{params.in_dim}-dim vectors")
    p, (acts, _logits, _squeeze) = forward(params, xs[:, None, :],
                                           return_cache=True)
    w = params.weights[-1]
    if params.head == "softmax":
        # p is (T, 1, out): diag(p) - p p^T per step, stacked
        s = np.eye(params.out_dim) * p - p.transpose(0, 2, 1) * p
        jac = np.matmul(s, w)
    else:
        jac = np.repeat(w[None], len(xs), axis=0)
    return _to_input(params, jac, acts)


# ---------------------------------------------------------------------------
# Optimization

# Adam's moment decay rates and the guard added to the step's denominator
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class OptimizerState:
    """Adam's step count and moments, one array per weight and bias."""

    lr: float = 0.01
    t: int = 0
    m: list[np.ndarray] = field(default_factory=list)
    v: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: MlpParams, lr: float) -> "OptimizerState":
        blanks = [np.zeros_like(a) for pair in zip(params.weights, params.biases)
                  for a in pair]
        return cls(lr=lr, m=[b.copy() for b in blanks], v=blanks)


def global_norm(grads: MlpParams) -> float:
    total = 0.0
    for w, b in zip(grads.weights, grads.biases):
        total += float(np.sum(w * w)) + float(np.sum(b * b))
    return float(np.sqrt(total))


def clip_and_apply(params: MlpParams, grads: MlpParams, opt: OptimizerState,
                   max_grad_norm: float = 0.5) -> float:
    """Scale grads to global norm <= max_grad_norm, take one Adam step.

    Returns the pre-clip global norm. Raises TrainingDiverged if gradients or
    the updated parameters are not finite.
    """
    norm = global_norm(grads)
    if not np.isfinite(norm):
        raise TrainingDiverged(f"gradient norm is {norm}")
    scale = 1.0
    if max_grad_norm > 0 and norm > max_grad_norm:
        scale = max_grad_norm / norm
    arrays = [a for pair in zip(grads.weights, grads.biases) for a in pair]
    targets = [a for pair in zip(params.weights, params.biases) for a in pair]
    opt.t += 1
    bc1 = 1.0 - ADAM_BETA1 ** opt.t
    bc2 = 1.0 - ADAM_BETA2 ** opt.t
    for g, m, v, p in zip(arrays, opt.m, opt.v, targets):
        gs = g * scale
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * gs
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * gs * gs
        p -= opt.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    for p in targets:
        if not np.all(np.isfinite(p)):
            raise TrainingDiverged("parameters left the finite range")
    return norm


def soft_update(target: MlpParams, online: MlpParams, tau: float) -> None:
    """Polyak step: target <- tau * online + (1 - tau) * target, in place."""
    for tw, ow in zip(target.weights, online.weights):
        tw *= 1.0 - tau
        tw += tau * ow
    for tb, ob in zip(target.biases, online.biases):
        tb *= 1.0 - tau
        tb += tau * ob

