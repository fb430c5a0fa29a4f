"""Shared oracles and fixtures.

The finite-difference helpers here are the independent ground truth for all
analytic-gradient tests: central differences with h = 1e-5 on freshly drawn
inputs, re-drawn if any hidden pre-activation sits within 10h of a ReLU kink
(central differences straddle the kink there and stop being a valid oracle).
"""
from __future__ import annotations

import numpy as np
import pytest

from hlab import nn


FD_H = 1e-5


def fd_input_jacobian(params: nn.MlpParams, x: np.ndarray,
                      h: float = FD_H) -> np.ndarray:
    """Central-difference Jacobian df/dx, column by column."""
    x = np.asarray(x, dtype=float)
    out = np.zeros((params.out_dim, x.size))
    for k in range(x.size):
        e = np.zeros_like(x)
        e[k] = h
        out[:, k] = (nn.forward(params, x + e) - nn.forward(params, x - e)) \
            / (2.0 * h)
    return out


def fd_param_gradient(params: nn.MlpParams, x: np.ndarray,
                      upstream: np.ndarray, h: float = FD_H) -> np.ndarray:
    """Central-difference gradient of sum(<upstream, f(x)>) over flat params."""
    upstream = np.asarray(upstream, dtype=float)
    flat = params.flatten()

    def loss(vec: np.ndarray) -> float:
        probe = params.copy()
        probe.assign_flat(vec)
        return float(np.sum(upstream * nn.forward(probe, x)))

    out = np.zeros_like(flat)
    for k in range(flat.size):
        e = np.zeros_like(flat)
        e[k] = h
        out[k] = (loss(flat + e) - loss(flat - e)) / (2.0 * h)
    return out


def min_preactivation_gap(params: nn.MlpParams, x: np.ndarray) -> float:
    """Smallest |pre-activation| across hidden layers (kink proximity)."""
    h = np.asarray(x, dtype=float)
    gap = np.inf
    for w, b in zip(params.weights[:-1], params.biases[:-1]):
        z = h @ w.T + b
        gap = min(gap, float(np.min(np.abs(z))))
        h = np.maximum(z, 0.0)
    return gap


def draw_smooth_case(rng: np.random.Generator, in_dim: int,
                     hidden: tuple[int, ...], out_dim: int, head: str,
                     min_gap: float = 10 * FD_H,
                     max_tries: int = 50) -> tuple[nn.MlpParams, np.ndarray]:
    """Random net + input, re-drawn until no ReLU kink lies within min_gap."""
    for _ in range(max_tries):
        params = nn.init_params(in_dim, hidden, out_dim, head, rng)
        x = rng.normal(size=in_dim)
        if min_preactivation_gap(params, x) > min_gap:
            return params, x
    raise RuntimeError("could not draw a kink-free test case")


def rel_error(got: np.ndarray, want: np.ndarray) -> float:
    scale = max(float(np.max(np.abs(want))), 1e-12)
    return float(np.max(np.abs(got - want))) / scale


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh stream per test, so no test's draws depend on which ran first."""
    return np.random.default_rng(20240817)
