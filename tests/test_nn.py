"""Network tests: every analytic gradient is checked against an oracle."""
import json

import numpy as np
import pytest

from conftest import (
    FD_H,
    draw_smooth_case,
    fd_input_jacobian,
    fd_param_gradient,
    forward_mode_jacobians,
    rel_error,
)
from hlab import nn


class TestForward:
    def test_shapes_vector_and_batch(self, rng):
        p = nn.init_params(6, [4, 3], 5, "softmax", rng)
        x = rng.normal(size=6)
        assert nn.forward(p, x).shape == (5,)
        xb = rng.normal(size=(7, 6))
        assert nn.forward(p, xb).shape == (7, 5)

    def test_batch_rows_match_single_calls(self, rng):
        p = nn.init_params(5, [4], 3, "linear", rng)
        xb = rng.normal(size=(6, 5))
        yb = nn.forward(p, xb)
        for k in range(6):
            assert np.allclose(yb[k], nn.forward(p, xb[k]), atol=1e-14)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lead", [(), (1,), (4,)],
                             ids=["n_d", "1_n_d", "k_n_d"])
    @pytest.mark.parametrize("head, hidden", [
        ("softmax", (16, 8)), ("linear", (7,)), ("softmax", ())],
        ids=["two_hidden", "one_hidden", "one_layer"])
    def test_stacked_members_match_their_own_rows(self, dtype, lead, head,
                                                  hidden):
        # a local stream, so the shared one is left as other tests expect
        rng = np.random.default_rng(len(hidden) + len(lead))
        nets = [nn.init_params(6, hidden, 5, head, rng).astype(dtype)
                for _ in range(3)]
        team = nn.MlpParams.stack(nets)
        assert (team.in_dim, team.out_dim, team.head) == (6, 5, head)
        assert [b.shape for b in team.biases] == [
            (3, 1, w.shape[0]) for w in nets[0].weights]
        x = rng.normal(size=(*lead, 3, 6)).astype(dtype)
        got = nn.forward(team, x[..., None, :])[..., 0, :]
        assert got.shape == x.shape[:-1] + (5,) and got.dtype == dtype
        for k in np.ndindex(*lead):
            for i, net in enumerate(nets):
                want = nn.forward(net, x[k][i])
                assert got[k][i].tobytes() == want.tobytes()

    def test_softmax_head_is_distribution(self, rng):
        p = nn.init_params(6, [4, 3], 5, "softmax", rng)
        y = nn.forward(p, rng.normal(size=(11, 6)) * 30.0)
        assert np.all(y >= 0)
        assert np.allclose(y.sum(axis=1), 1.0, atol=1e-12)

    def test_softmax_is_shift_invariant_overflow_safe(self):
        w = np.zeros((5, 2))
        w[0, 0] = 1.0
        p = nn.MlpParams([w], [np.zeros(5)], "softmax")
        y = nn.forward(p, np.array([5000.0, 0.0]))
        assert np.isfinite(y).all() and y[0] == pytest.approx(1.0)

    def test_dim_mismatch_rejected(self, rng):
        p = nn.init_params(6, [4], 2, "linear", rng)
        with pytest.raises(ValueError, match="does not match"):
            nn.forward(p, np.zeros(5))

    def test_known_tiny_net_by_hand(self):
        # one layer, linear head: f(x) = W x + b
        w = np.array([[1.0, -2.0], [0.5, 0.0]])
        b = np.array([0.25, -1.0])
        p = nn.MlpParams([w], [b], "linear")
        y = nn.forward(p, np.array([2.0, 1.0]))
        assert y.tolist() == [2.0 - 2.0 + 0.25, 1.0 - 1.0]

    def test_relu_hidden_by_hand(self):
        # hidden pre-activation (-1, 2) -> relu (0, 2) -> out 2*w2
        w1 = np.array([[-1.0, 0.0], [2.0, 0.0]])
        w2 = np.array([[1.0, 3.0]])
        p = nn.MlpParams([w1, w2], [np.zeros(2), np.zeros(1)], "linear")
        y = nn.forward(p, np.array([1.0, 7.0]))
        assert y.tolist() == [6.0]


class TestInit:
    def test_fan_in_bounds(self, rng):
        p = nn.init_params(16, [8], 4, "linear", rng)
        assert np.all(np.abs(p.weights[0]) <= 1.0 / 4.0)
        assert np.all(np.abs(p.weights[1]) <= 1.0 / np.sqrt(8))
        assert p.weights[0].shape == (8, 16)
        assert p.biases[1].shape == (4,)

    def test_seeded_init_reproducible(self):
        a = nn.init_params(6, [4], 2, "linear", np.random.default_rng(3))
        b = nn.init_params(6, [4], 2, "linear", np.random.default_rng(3))
        for wa, wb in zip(a.weights, b.weights):
            assert np.array_equal(wa, wb)


class TestGradientsAgainstFiniteDifferences:
    @pytest.mark.parametrize("head", ["linear", "softmax"])
    def test_param_gradients(self, rng, head):
        for _ in range(8):
            in_dim = int(rng.integers(3, 9))
            out_dim = 5 if head == "softmax" else int(rng.integers(1, 4))
            p, x = draw_smooth_case(rng, in_dim, (4, 3), out_dim, head)
            u = rng.normal(size=out_dim)
            got = nn.backward_params(p, x, u).flatten()
            want = fd_param_gradient(p, x, u)
            assert rel_error(got, want) < 1e-4

    @pytest.mark.parametrize("head", ["linear", "softmax"])
    def test_input_jacobian(self, rng, head):
        for _ in range(8):
            in_dim = int(rng.integers(3, 9))
            out_dim = 5 if head == "softmax" else int(rng.integers(1, 4))
            p, x = draw_smooth_case(rng, in_dim, (4, 3), out_dim, head)
            got = nn.input_jacobian(p, x)
            want = fd_input_jacobian(p, x)
            assert rel_error(got, want) < 1e-4

    def test_input_gradient_is_upstream_times_jacobian(self, rng):
        p, x = draw_smooth_case(rng, 6, (4, 3), 5, "softmax")
        u = rng.normal(size=5)
        g = nn.input_gradient(p, x, u)
        jac = nn.input_jacobian(p, x)
        assert np.allclose(g, u @ jac, atol=1e-12)

    def test_batched_param_gradient_sums_rows(self, rng):
        p = nn.init_params(5, [4], 2, "linear", rng)
        xb = rng.normal(size=(3, 5))
        ub = rng.normal(size=(3, 2))
        got = nn.backward_params(p, xb, ub).flatten()
        want = sum(nn.backward_params(p, xb[k], ub[k]).flatten()
                   for k in range(3))
        assert np.allclose(got, want, atol=1e-12)

    @pytest.mark.parametrize("head", ["linear", "softmax"])
    @pytest.mark.parametrize("shape", [(6,), (9, 6)])
    def test_cached_backward_equals_uncached(self, rng, head, shape):
        p = nn.init_params(6, [8, 4], 5, head, rng)
        x = rng.normal(size=shape)
        u = rng.normal(size=shape[:-1] + (5,))
        cache = nn.forward(p, x, return_cache=True)
        got = nn.backward_params(p, x, u, cache)
        want = nn.backward_params(p, x, u)
        for a, b in zip(got.weights + got.biases, want.weights + want.biases):
            assert np.array_equal(a, b)
        assert np.array_equal(nn.input_gradient(p, x, u, cache),
                              nn.input_gradient(p, x, u))

    def test_linear_net_jacobian_is_weight_matrix(self):
        w = np.array([[1.0, 2.0, -1.0], [0.5, 0.0, 4.0]])
        p = nn.MlpParams([w], [np.zeros(2)], "linear")
        jac = nn.input_jacobian(p, np.array([0.3, -0.2, 0.9]))
        assert np.array_equal(jac, w)

    def test_softmax_jacobian_rows_sum_to_zero(self, rng):
        p, x = draw_smooth_case(rng, 6, (4,), 5, "softmax")
        jac = nn.input_jacobian(p, x)
        # d(sum of probs)/dx = 0
        assert np.allclose(jac.sum(axis=0), 0.0, atol=1e-12)

    def test_jacobian_rejects_batch(self, rng):
        p = nn.init_params(4, [3], 2, "linear", rng)
        with pytest.raises(ValueError, match="single input"):
            nn.input_jacobian(p, np.zeros((2, 4)))

    @pytest.mark.parametrize("head", ["linear", "softmax"])
    @pytest.mark.parametrize("hidden", [(), (7,), (6, 5, 4), (128, 64)])
    def test_stacked_jacobians_equal_per_input_calls(self, head, hidden):
        # a local stream, so the shared one is left as other tests expect
        rng = np.random.default_rng(len(hidden))
        p = nn.init_params(9, hidden, 5, head, rng)
        xs = rng.normal(size=(13, 9))
        jacs = nn.input_jacobians(p, xs)
        assert jacs.shape == (13, 5, 9)
        for t in range(13):
            assert jacs[t].tobytes() == nn.input_jacobian(p, xs[t]).tobytes()
            assert jacs[t].tobytes() == _ref_jacobian(p, xs[t]).tobytes()

    @pytest.mark.parametrize("in_dim", [18, 20])
    @pytest.mark.parametrize("head", ["linear", "softmax"])
    @pytest.mark.parametrize("hidden", [(), (7,), (6, 5, 4), (128, 64)])
    def test_stacked_jacobians_match_forward_accumulation(self, head, hidden,
                                                          in_dim):
        rng = np.random.default_rng(in_dim + len(hidden))
        p = nn.init_params(in_dim, hidden, 5, head, rng)
        xs = rng.normal(size=(50, in_dim))
        jacs = nn.input_jacobians(p, xs)
        want = forward_mode_jacobians(p, xs)
        assert jacs.shape == want.shape == (50, 5, in_dim)
        assert np.abs(jacs - want).max() <= 1e-12 * np.abs(jacs).max()

    @pytest.mark.parametrize("head", ["linear", "softmax"])
    @pytest.mark.parametrize("hidden", [(), (3,)])
    def test_stacked_jacobians_of_no_inputs(self, head, hidden):
        p = nn.init_params(4, hidden, 5, head, np.random.default_rng(0))
        jacs = nn.input_jacobians(p, np.zeros((0, 4)))
        assert jacs.shape == (0, 5, 4) and jacs.dtype == np.float64

    def test_stacked_jacobians_reject_wrong_width(self):
        p = nn.init_params(4, [3], 2, "linear", np.random.default_rng(0))
        with pytest.raises(ValueError, match="4-dim"):
            nn.input_jacobians(p, np.zeros((2, 5)))
        with pytest.raises(ValueError, match="4-dim"):
            nn.input_jacobians(p, np.zeros(4))


def _kinked_net(head: str) -> tuple[nn.MlpParams, np.ndarray]:
    """A net whose hidden pre-activations are exactly zero in places.

    Zeroed weight rows with a +0.0 or -0.0 bias give a unit that sits on
    its kink for every input; a row that reads only column 0 sits on it
    for the inputs whose column 0 is +0.0 or -0.0.
    """
    rng = np.random.default_rng(31)
    p = nn.init_params(4, [6, 5], 5, head, rng)
    for w, b in zip(p.weights[:-1], p.biases[:-1]):
        w[:2] = 0.0
        b[0], b[1] = 0.0, -0.0
        w[2] = 0.0
        w[2, 0] = 1.5
        b[2] = 0.0
    x = rng.normal(size=(9, 4))
    x[:3, 0] = 0.0
    x[3:5, 0] = -0.0
    return p, x


def _ref_masked_by_preactivation(params, x, upstream):
    """Forward and both backwards with each ReLU mask taken from z > 0."""
    acts, pre, h = [x], [], x
    for l, (w, b) in enumerate(zip(params.weights, params.biases)):
        z = h @ w.T + b
        pre.append(z)
        if l < params.n_layers - 1:
            h = np.maximum(z, 0.0)
        elif params.head == "softmax":
            shifted = z - z.max(axis=-1, keepdims=True)
            e = np.exp(shifted)
            h = e / e.sum(axis=-1, keepdims=True)
        else:
            h = z
        acts.append(h)
    g = upstream
    if params.head == "softmax":
        g = h * (g - (g * h).sum(axis=-1, keepdims=True))
    gw, gb = [None] * params.n_layers, [None] * params.n_layers
    for l in range(params.n_layers - 1, -1, -1):
        gw[l] = g.T @ acts[l]
        gb[l] = g.sum(axis=0)
        g = g @ params.weights[l]
        if l > 0:
            g = g * (pre[l - 1] > 0.0)
    return pre, nn.MlpParams(gw, gb, params.head), g


def _ref_jacobian(params, x):
    """Reverse accumulation in plain 2-D products, masks from z > 0."""
    pre, _grads, _dx = _ref_masked_by_preactivation(
        params, x.reshape(1, -1), np.zeros((1, params.out_dim)))
    jac = params.weights[-1]
    if params.head == "softmax":
        p = nn.forward(params, x)
        jac = (np.diag(p) - np.outer(p, p)) @ jac
    for l in range(params.n_layers - 2, -1, -1):
        jac = (jac * (pre[l][0] > 0.0)[None, :]) @ params.weights[l]
    return jac


class TestExactKinks:
    @pytest.mark.parametrize("head", ["linear", "softmax"])
    def test_backwards_mask_like_preactivation_reference(self, head):
        p, x = _kinked_net(head)
        u = np.random.default_rng(32).normal(size=(len(x), 5))
        pre, want, want_dx = _ref_masked_by_preactivation(p, x, u)
        for z in pre[:-1]:  # every hidden layer has units on and off a kink
            assert (z == 0.0).any() and (z > 0.0).any() and (z < 0.0).any()
        cache = nn.forward(p, x, return_cache=True)
        for c in (None, cache):
            got = nn.backward_params(p, x, u, c)
            for a, b in zip(got.weights + got.biases,
                            want.weights + want.biases):
                assert a.tobytes() == b.tobytes()
            assert nn.input_gradient(p, x, u, c).tobytes() == \
                want_dx.tobytes()
        for row, jac in zip(x, nn.input_jacobians(p, x)):
            want = _ref_jacobian(p, row).tobytes()
            assert nn.input_jacobian(p, row).tobytes() == want
            assert jac.tobytes() == want

    @pytest.mark.parametrize("head", ["linear", "softmax"])
    def test_forward_leaves_input_unchanged(self, head):
        p, x = _kinked_net(head)
        before = x.copy()
        nn.forward(p, x)
        nn.forward(p, x, return_cache=True)
        nn.forward(p, x[3], return_cache=True)
        assert x.tobytes() == before.tobytes()

    def test_relu_output_is_positive_exactly_where_its_input_is(self):
        # the backward passes read each ReLU mask off max(z, 0)
        z = np.array([0.0, -0.0, np.nan, -np.nan, np.inf, -np.inf, 5e-324,
                      -5e-324, 1.0, -1.0])
        assert np.array_equal(np.maximum(z, 0.0) > 0.0, z > 0.0)


class TestOptimizer:
    def test_adam_first_step_by_hand(self):
        # bias-corrected moments of a first step are g and g^2, so each
        # coordinate moves by lr * g / (|g| + eps)
        w = np.array([[1.0, 1.0]])
        p = nn.MlpParams([w.copy()], [np.zeros(1)], "linear")
        g = nn.MlpParams([np.array([[0.3, 0.0]])], [np.array([0.4])], "linear")
        opt = nn.OptimizerState.for_params(p, lr=0.1)
        norm = nn.clip_and_apply(p, g, opt, max_grad_norm=0.0)  # no clipping
        assert norm == pytest.approx(0.5)
        assert opt.t == 1
        eps = nn.ADAM_EPS
        assert np.allclose(p.weights[0], [[1.0 - 0.1 * 0.3 / (0.3 + eps),
                                           1.0]], rtol=0, atol=1e-12)
        assert np.allclose(p.biases[0], [-0.1 * 0.4 / (0.4 + eps)],
                           rtol=0, atol=1e-12)

    def test_clip_rescales_to_max_norm(self):
        p = nn.MlpParams([np.zeros((1, 2))], [np.zeros(1)], "linear")
        g = nn.MlpParams([np.array([[3.0, 0.0]])], [np.array([4.0])],
                         "linear")
        opt = nn.OptimizerState.for_params(p, lr=1.0)
        norm = nn.clip_and_apply(p, g, opt, max_grad_norm=0.5)
        assert norm == pytest.approx(5.0)
        # Adam's first moment is (1 - beta1) * g * scale, scale = 0.5 / 5.0
        assert np.allclose(opt.m[0], [[0.03, 0.0]])
        assert np.allclose(opt.m[1], [0.04])

    def test_adam_first_step_magnitude(self):
        # first Adam step moves each coordinate by ~lr regardless of scale
        p = nn.MlpParams([np.zeros((1, 1))], [np.zeros(1)], "linear")
        g = nn.MlpParams([np.array([[7.0]])], [np.array([0.0])], "linear")
        opt = nn.OptimizerState.for_params(p, lr=0.01)
        nn.clip_and_apply(p, g, opt, max_grad_norm=0.0)
        assert p.weights[0][0, 0] == pytest.approx(-0.01, rel=1e-6)

    def test_adam_decreases_quadratic(self):
        # minimize 0.5*(w x - t)^2 for fixed x; Adam should converge near t/x
        p = nn.MlpParams([np.array([[0.0]])], [np.array([0.0])], "linear")
        opt = nn.OptimizerState.for_params(p, lr=0.05)
        x = np.array([2.0])
        for _ in range(400):
            y = nn.forward(p, x)
            g = nn.backward_params(p, x, y - np.array([3.0]))
            nn.clip_and_apply(p, g, opt, max_grad_norm=0.0)
        assert float(nn.forward(p, x)[0]) == pytest.approx(3.0, abs=1e-3)

    def test_non_finite_gradient_raises(self):
        p = nn.MlpParams([np.zeros((1, 1))], [np.zeros(1)], "linear")
        g = nn.MlpParams([np.array([[np.nan]])], [np.zeros(1)], "linear")
        opt = nn.OptimizerState.for_params(p, lr=0.1)
        with pytest.raises(nn.TrainingDiverged):
            nn.clip_and_apply(p, g, opt)


class TestSoftUpdate:
    def test_tau_one_copies(self, rng):
        online = nn.init_params(4, [3], 2, "linear", rng)
        target = nn.init_params(4, [3], 2, "linear", rng)
        nn.soft_update(target, online, tau=1.0)
        for tw, ow in zip(target.weights, online.weights):
            assert np.allclose(tw, ow, atol=1e-15)

    def test_single_step_interpolation(self, rng):
        online = nn.init_params(4, [3], 2, "linear", rng)
        target = nn.init_params(4, [3], 2, "linear", rng)
        before = target.copy()
        nn.soft_update(target, online, tau=0.01)
        for tw, bw, ow in zip(target.weights, before.weights, online.weights):
            assert np.allclose(tw, 0.01 * ow + 0.99 * bw, atol=1e-15)

    def test_geometric_contraction(self, rng):
        online = nn.init_params(6, [5], 3, "linear", rng)
        target = nn.init_params(6, [5], 3, "linear", rng)
        d0 = np.linalg.norm(target.flatten() - online.flatten())
        for k in range(1, 51):
            nn.soft_update(target, online, tau=0.01)
            dk = np.linalg.norm(target.flatten() - online.flatten())
            assert dk == pytest.approx(d0 * 0.99 ** k, rel=1e-12)


class TestSerialization:
    def test_flatten_assign_round_trip(self, rng):
        p = nn.init_params(5, [4], 3, "linear", rng)
        flat = p.flatten()
        q = nn.init_params(5, [4], 3, "linear", rng)
        q.assign_flat(flat)
        assert np.array_equal(q.flatten(), flat)
        with pytest.raises(ValueError, match="entries"):
            q.assign_flat(flat[:-1])
