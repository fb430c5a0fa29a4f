"""Shared oracles and fixtures.

The finite-difference helpers here are the independent ground truth for all
analytic-gradient tests: central differences with h = 1e-5 on freshly drawn
inputs, re-drawn if any hidden pre-activation sits within 10h of a ReLU kink
(central differences straddle the kink there and stop being a valid oracle).
"""
from __future__ import annotations

import numpy as np
import pytest

from hlab import maddpg, nn, world


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


def forward_mode_jacobians(params: nn.MlpParams,
                           xs: np.ndarray) -> np.ndarray:
    """Input Jacobians at every row of xs (T, in_dim) by forward accumulation.

    The identity is pushed up through each layer's weights and ReLU mask,
    then through the head's Jacobian: the other order of the same chain
    product that nn.input_jacobians takes, so it agrees to rounding only.
    """
    h = np.asarray(xs, dtype=float)[:, None, :]
    jac = np.eye(params.in_dim)
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = np.matmul(h, w.T) + b
        jac = np.matmul(w, jac)
        if l < params.n_layers - 1:
            jac = jac * (z > 0.0).transpose(0, 2, 1)
            h = np.maximum(z, 0.0)
    if jac.ndim == 2:  # a single layer never met a per-step mask
        jac = np.repeat(jac[None], len(h), axis=0)
    if params.head == "softmax":
        p = np.exp(z - z.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        s = np.eye(params.out_dim) * p - p.transpose(0, 2, 1) * p
        jac = np.matmul(s, jac)
    return jac


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


# Teams that do not fit their scenario, each with the 1-based agent whose
# actor is at fault: (case, agent).
MISFITS = [("seven_outputs", 1), ("one_four_outputs", 2),
           ("all_four_outputs", 1), ("linear_head", 3),
           ("mixed_widths", 2), ("extra_layer", 3)]


def misfit_team(case: str, scenario: world.ScenarioConfig
                ) -> list[maddpg.AgentNets]:
    """A scenario's team of (16, 8) softmax actors over the five actions,
    but for the MISFITS case's actor(s) at fault."""
    n = scenario.n_agents
    actors = {  # agent index -> (hidden, outputs, head)
        "seven_outputs": {i: ((16, 8), 7, "softmax") for i in range(n)},
        "one_four_outputs": {1: ((16, 8), 4, "softmax")},
        "all_four_outputs": {i: ((16, 8), 4, "softmax") for i in range(n)},
        "linear_head": {2: ((16, 8), world.N_ACTIONS, "linear")},
        "mixed_widths": {1: ((12,), world.N_ACTIONS, "softmax")},
        "extra_layer": {2: ((16, 8, 8), world.N_ACTIONS, "softmax")},
    }[case]
    rng = np.random.default_rng(7)
    nets = []
    for i in range(n):
        a = maddpg.AgentNets.create(scenario.obs_dim, scenario.joint_dim,
                                    (16, 8), 0.01, 0.01, rng)
        if i in actors:
            hidden, out, head = actors[i]
            a.actor = nn.init_params(scenario.obs_dim, hidden, out, head, rng)
            if case == "seven_outputs" and i == 0:
                a.actor.biases[-1][6] = 100.0  # always picks action 6
            a.target_actor = a.actor.copy()
        nets.append(a)
    return nets


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh stream per test, so no test's draws depend on which ran first."""
    return np.random.default_rng(20240817)
