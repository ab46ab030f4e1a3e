import copy
import math

import numpy as np
import pytest
from scipy.special import log_softmax

from apo import nn
from apo.nn import (
    LOG_2PI,
    adam_step,
    backward,
    categorical_rows,
    clip_global_norm,
    deterministic_action,
    init_adam_state,
    init_mlp,
    load_checkpoint,
    mlp_forward,
    policy_log_prob,
    policy_log_prob_vjp,
    sample_action,
    save_checkpoint,
    value_forward,
    value_vjp,
)
from apo.training import _clipped_surrogate
from tests.conftest import TopRng, finite_difference_max_rel_err


class TestBackward:
    def test_quadratic_closed_form(self):
        # with no hidden layer the network is affine, so the gradient of
        # mean((out - c)^2) is 2 x^T (out - c) / n for the weights and the
        # mean residual times two for the bias
        params = init_mlp(np.random.default_rng(70), 3, 1, "value", hidden=())
        x = np.random.default_rng(71).normal(size=(4, 3))
        c = np.random.default_rng(72).normal(size=4)
        v, vjp = value_vjp(params, x)
        r = v - c
        grads = params.views(vjp(2.0 * r / 4.0))
        np.testing.assert_allclose(grads["w0"][:, 0], 2.0 * x.T @ r / 4.0, atol=1e-15)
        np.testing.assert_allclose(grads["b0"], [2.0 * r.mean()], atol=1e-15)

    def test_untouched_leaf_gets_zeros(self):
        # the network body never sees the Gaussian log-std: without a head
        # gradient it still gets a zero gradient of its shape
        params = init_mlp(np.random.default_rng(73), 3, 2, "gaussian", hidden=(4,))
        acts: list = []
        out = mlp_forward(params, np.random.default_rng(74).normal(size=(5, 3)), acts)
        flat = backward(params, acts, np.ones_like(out))
        assert flat.shape == params.flat.shape
        grads = params.views(flat)
        np.testing.assert_array_equal(grads["log_std"], np.zeros(2))
        assert np.abs(grads["w0"]).sum() > 0.0

    def test_clip_passes_gradient_only_inside(self):
        # the surrogate's gradient in log-prob is -adv * ratio / n except
        # where the clipped branch wins outside [1 - eps, 1 + eps]
        ratio = np.array([0.5, 0.9, 1.0, 1.1, 1.5, 0.5, 0.9, 1.1, 1.5])
        adv = np.array([1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0])
        loss, g = _clipped_surrogate(np.log(ratio), np.zeros(9), adv, 0.2)
        dead = ((adv > 0) & (ratio > 1.2)) | ((adv < 0) & (ratio < 0.8))
        np.testing.assert_array_equal(g[dead], 0.0)
        np.testing.assert_allclose(g[~dead], (-adv * np.exp(np.log(ratio)) / 9)[~dead],
                                   rtol=1e-15)
        expected = np.minimum(ratio * adv, np.clip(ratio, 0.8, 1.2) * adv)
        np.testing.assert_allclose(loss, -expected.mean(), rtol=1e-15)

    def test_minimum_tie_picks_first_argument(self):
        # at ratio one the branches tie and the gradient is the unclipped
        # branch's, -adv / n
        adv = np.array([2.0, -1.0, 0.5])
        _, g = _clipped_surrogate(np.zeros(3), np.zeros(3), adv, 0.2)
        np.testing.assert_array_equal(g, -adv / 3.0)

    def test_select_scatters_per_row(self):
        # d/dlogits of sum(log softmax[action]) is one-hot minus softmax, row by row
        params = init_mlp(np.random.default_rng(75), 3, 2, "categorical", hidden=())
        params.tensors["w0"][:] = 0.0
        params.tensors["b0"][:] = [0.0, math.log(3.0)]
        x = np.eye(3)
        actions = np.array([1, 1, 0])
        _, vjp = policy_log_prob_vjp(params, x, actions)
        grads = params.views(vjp(np.ones(3)))
        expected = np.eye(2)[actions] - np.array([0.25, 0.75])
        np.testing.assert_allclose(grads["w0"], expected, atol=1e-15)
        np.testing.assert_allclose(grads["b0"], expected.sum(axis=0), atol=1e-15)

    def test_misshaped_upstream_gradient_rejected(self):
        params = init_mlp(np.random.default_rng(76), 2, 1, "value", hidden=(3,))
        acts: list = []
        mlp_forward(params, np.zeros((4, 2)), acts)
        with pytest.raises(ValueError, match="upstream gradient"):
            backward(params, acts, np.zeros(4))
        with pytest.raises(ValueError, match="layer inputs"):
            backward(params, acts[:1], np.zeros((4, 1)))
        backward(params, acts, np.zeros((4, 1)))


def per_tensor_backward(params, acts, g_out, log_std_grad=None):
    """Reference for `backward`: one fresh array per tensor, by name."""
    grads, g = {}, g_out
    for i in range(len(params.hidden), -1, -1):
        grads[f"w{i}"] = acts[i].T @ g
        grads[f"b{i}"] = g.sum(axis=0)
        if i > 0:
            g = (g @ params.tensors[f"w{i}"].T) * (1.0 - np.square(acts[i]))
    if params.head == "gaussian":
        grads["log_std"] = np.zeros(params.out_dim) if log_std_grad is None else log_std_grad
    return {name: grads[name] for name in params.tensors}


class TestGradientOrderAndOwnership:
    """The gradient is one fresh vector in the layout of ``params.flat`` that
    aliases nothing, because `clip_global_norm` scales it in place and
    `adam_step` reads it in the order of ``params.flat``."""

    def _check(self, params, acts, flat, others):
        assert flat.shape == params.flat.shape and flat.dtype == np.float64
        assert flat.flags.c_contiguous and flat.base is None
        for other in [params.flat, *acts, *others]:
            assert not np.shares_memory(flat, other)

    @pytest.mark.parametrize("head,out_dim", [("value", 1), ("categorical", 3), ("gaussian", 2)])
    @pytest.mark.parametrize("hidden", [(), (5,), (6, 4)])
    def test_order_and_no_aliasing(self, head, out_dim, hidden):
        params = init_mlp(np.random.default_rng(77), 3, out_dim, head, hidden)
        obs = np.random.default_rng(78).normal(size=(6, 3))
        acts: list = []
        out = mlp_forward(params, obs, acts)
        g_out = np.random.default_rng(80).normal(size=out.shape)
        flat = backward(params, acts, g_out)
        self._check(params, acts, flat, [g_out])
        # the vector holds each named gradient where params.flat holds the tensor
        ref = per_tensor_backward(params, acts, g_out)
        assert list(params.views(flat)) == list(params.tensors) == list(ref)
        np.testing.assert_array_equal(flat, np.concatenate([x.ravel() for x in ref.values()]))
        if head == "value":
            _, vjp = value_vjp(params, obs)
        else:
            actions = (np.array([0, 2, 1, 1, 0, 2]) if head == "categorical"
                       else np.random.default_rng(79).normal(size=(6, 2)))
            _, vjp = policy_log_prob_vjp(params, obs, actions)
        first = vjp(np.full(6, 0.5))
        self._check(params, [], first, [flat])
        second = vjp(np.full(6, 0.5))
        self._check(params, [], second, [flat, first])
        np.testing.assert_array_equal(first, second)


class TestLayout:
    """``params.tensors`` are views into ``params.flat``, wherever the
    parameters come from."""

    def _check_views(self, params):
        assert list(params.tensors) == list(params.views(params.flat))
        assert sum(x.size for x in params.tensors.values()) == params.flat.size
        for tensor in params.tensors.values():
            assert tensor.base is params.flat

    @pytest.mark.parametrize("head,out_dim", [("value", 1), ("categorical", 3), ("gaussian", 2)])
    def test_views_after_init_load_and_deepcopy(self, tmp_path, head, out_dim):
        params = init_mlp(np.random.default_rng(90), 3, out_dim, head, (5, 4))
        self._check_views(params)
        save_checkpoint(tmp_path / "c.npz", {"net": params})
        loaded = load_checkpoint(tmp_path / "c.npz")[0]["net"]
        self._check_views(loaded)
        np.testing.assert_array_equal(loaded.flat, params.flat)
        clone = copy.deepcopy(params)
        self._check_views(clone)
        assert not np.shares_memory(clone.flat, params.flat)
        np.testing.assert_array_equal(clone.flat, params.flat)
        clone.tensors["w0"][0, 0] += 1.0
        assert clone.flat[0] == params.flat[0] + 1.0

    @staticmethod
    def _reference_forward(params, x):
        """`mlp_forward` written over ``params.tensors`` by name."""
        h = x
        last = len(params.hidden)
        for i in range(last):
            h = np.tanh(h @ params.tensors[f"w{i}"] + params.tensors[f"b{i}"])
        return h @ params.tensors[f"w{last}"] + params.tensors[f"b{last}"]

    def _check_layers(self, params):
        assert len(params.layers) == len(params.hidden) + 1
        for i, (w, b) in enumerate(params.layers):
            assert w.base is params.flat and b.base is params.flat
            assert np.shares_memory(w, params.tensors[f"w{i}"])
            assert np.shares_memory(b, params.tensors[f"b{i}"])
        x = np.random.default_rng(92).normal(size=(5, params.in_dim))
        for batch in (x[:1], x):
            assert (mlp_forward(params, batch).tobytes()
                    == self._reference_forward(params, batch).tobytes())

    @pytest.mark.parametrize("head,out_dim", [("value", 1), ("categorical", 3), ("gaussian", 2)])
    def test_layers_alias_flat_after_adam_deepcopy_and_load(self, tmp_path, head, out_dim):
        params = init_mlp(np.random.default_rng(93), 3, out_dim, head, (5, 4))
        self._check_layers(params)
        adam_step(params, np.random.default_rng(94).normal(size=params.flat.shape),
                  init_adam_state(params), 1e-1)
        self._check_layers(params)
        clone = copy.deepcopy(params)
        self._check_layers(clone)
        clone.flat += 0.5
        self._check_layers(clone)
        one = np.ones((1, 3))
        assert mlp_forward(clone, one).tobytes() != mlp_forward(params, one).tobytes()
        save_checkpoint(tmp_path / "c.npz", {"net": params})
        loaded = load_checkpoint(tmp_path / "c.npz")[0]["net"]
        self._check_layers(loaded)
        x = np.ones((2, 3))
        assert mlp_forward(loaded, x).tobytes() == mlp_forward(params, x).tobytes()

    def test_adam_step_shows_through_the_views(self):
        params = init_mlp(np.random.default_rng(91), 3, 2, "gaussian", (5,))
        before = copy.deepcopy(params.tensors)
        state = init_adam_state(params)
        adam_step(params, np.ones_like(params.flat), state, 1e-2)
        for name, tensor in params.tensors.items():
            np.testing.assert_array_equal(tensor, before[name] - 1e-2 / (1.0 + 1e-8))
            np.testing.assert_array_equal(params.views(state.m)[name],
                                          np.full(tensor.shape, 1.0 - 0.9))


class TestInit:
    def test_same_seed_identical(self):
        a = init_mlp(np.random.default_rng(0), 3, 2, "categorical", hidden=(8,))
        b = init_mlp(np.random.default_rng(0), 3, 2, "categorical", hidden=(8,))
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
        c = init_mlp(np.random.default_rng(1), 3, 2, "categorical", hidden=(8,))
        assert not np.array_equal(a.tensors["w0"], c.tensors["w0"])

    def test_glorot_bounds_and_zero_biases(self):
        params = init_mlp(np.random.default_rng(2), 5, 3, "gaussian")
        assert params.hidden == (64, 64)
        for i, (fan_in, fan_out) in enumerate(params.layer_sizes):
            limit = math.sqrt(6.0 / (fan_in + fan_out))
            w = params.tensors[f"w{i}"]
            assert w.shape == (fan_in, fan_out)
            assert np.max(np.abs(w)) <= limit
            np.testing.assert_array_equal(params.tensors[f"b{i}"], np.zeros(fan_out))
        np.testing.assert_array_equal(params.tensors["log_std"], np.zeros(3))

    def test_invalid_inputs(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            init_mlp(rng, 3, 2, "softmax")
        with pytest.raises(ValueError):
            init_mlp(rng, 0, 2, "value")
        with pytest.raises(ValueError):
            init_mlp(rng, 3, 2, "value", hidden=(0,))


class TestForward:
    def test_zero_input_runs_down_the_bias_path(self):
        params = init_mlp(np.random.default_rng(3), 4, 1, "value")
        out = value_forward(params, np.zeros((5, 4)))
        # biases start at zero and tanh(0) = 0, so the output is exactly zero
        np.testing.assert_array_equal(out, np.zeros(5))

    def test_batch_of_one_matches_batched_row(self):
        params = init_mlp(np.random.default_rng(4), 3, 2, "categorical", hidden=(16,))
        x = np.random.default_rng(5).normal(size=(7, 3))
        full = mlp_forward(params, x)
        # BLAS may reorder the row sums between batch shapes, so compare to
        # float precision rather than bit for bit
        for i in range(7):
            np.testing.assert_allclose(
                mlp_forward(params, x[i : i + 1])[0], full[i], rtol=1e-12, atol=1e-14
            )

    def test_permutation_equivariance(self):
        params = init_mlp(np.random.default_rng(6), 3, 1, "value", hidden=(8,))
        x = np.random.default_rng(7).normal(size=(6, 3))
        perm = np.array([3, 1, 5, 0, 2, 4])
        np.testing.assert_allclose(
            value_forward(params, x[perm]), value_forward(params, x)[perm], rtol=1e-12, atol=1e-14
        )

    def test_cached_forward_is_bitwise_identical(self):
        params = init_mlp(np.random.default_rng(8), 3, 2, "categorical", hidden=(8, 8))
        x = np.random.default_rng(9).normal(size=(4, 3))
        acts: list = []
        np.testing.assert_array_equal(mlp_forward(params, x, acts), mlp_forward(params, x))
        assert len(acts) == 3
        np.testing.assert_array_equal(acts[0], x)
        np.testing.assert_array_equal(acts[2], np.tanh(acts[1] @ params.tensors["w1"]
                                                       + params.tensors["b1"]))
        vparams = init_mlp(np.random.default_rng(10), 3, 1, "value", hidden=(8,))
        v, _ = value_vjp(vparams, x)
        np.testing.assert_array_equal(v, value_forward(vparams, x))

    def test_finite_over_pendulum_observation_range(self):
        params = init_mlp(np.random.default_rng(11), 3, 1, "value")
        thetas = np.linspace(-np.pi, np.pi, 25)
        speeds = np.linspace(-8.0, 8.0, 17)
        grid = np.array([[np.cos(t), np.sin(t), s] for t in thetas for s in speeds])
        assert np.all(np.isfinite(value_forward(params, grid)))

    def test_value_forward_rejects_policy_head(self):
        params = init_mlp(np.random.default_rng(12), 3, 2, "categorical")
        with pytest.raises(ValueError):
            value_forward(params, np.zeros((1, 3)))


class TestLogProbs:
    def test_gaussian_at_mean_closed_form(self):
        params = init_mlp(np.random.default_rng(13), 4, 2, "gaussian", hidden=(8,))
        obs = np.random.default_rng(14).normal(size=(6, 4))
        mu = mlp_forward(params, obs)
        logp = policy_log_prob(params, obs, mu)
        np.testing.assert_allclose(logp, np.full(6, -0.5 * 2 * LOG_2PI), atol=1e-12)

    def test_categorical_matches_log_softmax(self):
        params = init_mlp(np.random.default_rng(15), 3, 4, "categorical", hidden=(8,))
        obs = np.random.default_rng(16).normal(size=(5, 3))
        logits = mlp_forward(params, obs)
        reference = log_softmax(logits, axis=1)
        actions = np.array([0, 3, 1, 2, 0])
        np.testing.assert_allclose(
            policy_log_prob(params, obs, actions),
            reference[np.arange(5), actions],
            atol=1e-12,
        )

    def test_categorical_probabilities_sum_to_one(self):
        params = init_mlp(np.random.default_rng(17), 3, 3, "categorical", hidden=(8,))
        obs = np.random.default_rng(18).normal(size=(4, 3))
        total = np.zeros(4)
        for a in range(3):
            total += np.exp(policy_log_prob(params, obs, np.full(4, a)))
        np.testing.assert_allclose(total, np.ones(4), atol=1e-12)

    def test_vjp_log_probs_bitwise_for_both_heads(self):
        rng = np.random.default_rng(19)
        obs = rng.normal(size=(5, 3))
        cat = init_mlp(np.random.default_rng(20), 3, 4, "categorical", hidden=(8,))
        actions = np.array([1, 0, 3, 2, 1])
        logp, _ = policy_log_prob_vjp(cat, obs, actions)
        np.testing.assert_array_equal(logp, policy_log_prob(cat, obs, actions))
        gauss = init_mlp(np.random.default_rng(21), 3, 2, "gaussian", hidden=(8,))
        acts = rng.normal(size=(5, 2))
        glogp, _ = policy_log_prob_vjp(gauss, obs, acts)
        np.testing.assert_array_equal(glogp, policy_log_prob(gauss, obs, acts))
        # sampling reuses the same arithmetic on its own forward pass
        for params in (cat, gauss):
            sampled, slogp = sample_action(params, obs, np.random.default_rng(3))
            np.testing.assert_array_equal(slogp, policy_log_prob(params, obs, sampled))

    def test_value_head_has_no_log_prob(self):
        params = init_mlp(np.random.default_rng(22), 3, 1, "value")
        with pytest.raises(ValueError):
            policy_log_prob(params, np.zeros((1, 3)), np.zeros(1))


class TestSampling:
    def test_gaussian_moments(self):
        params = init_mlp(np.random.default_rng(23), 2, 1, "gaussian", hidden=(4,))
        params.tensors["log_std"][:] = 0.3
        obs = np.tile(np.array([[0.5, -0.25]]), (100_000, 1))
        actions, logp = sample_action(params, obs, np.random.default_rng(24))
        mu = mlp_forward(params, obs[:1])[0, 0]
        std = math.exp(0.3)
        n = actions.shape[0]
        assert abs(actions.mean() - mu) <= 3.0 * std / math.sqrt(n)
        assert abs(actions.std() - std) <= 3.0 * std / math.sqrt(2 * n)
        np.testing.assert_allclose(logp, policy_log_prob(params, obs, actions), atol=1e-12)

    def test_categorical_frequencies(self):
        params = init_mlp(np.random.default_rng(25), 2, 3, "categorical", hidden=(4,))
        obs = np.tile(np.array([[1.0, -1.0]]), (100_000, 1))
        actions, _ = sample_action(params, obs, np.random.default_rng(26))
        logits = mlp_forward(params, obs[:1])[0]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        for a in range(3):
            freq = np.mean(actions == a)
            sigma = math.sqrt(probs[a] * (1.0 - probs[a]) / actions.shape[0])
            assert abs(freq - probs[a]) <= 3.0 * sigma + 1e-9

    def test_sampling_is_reproducible(self):
        params = init_mlp(np.random.default_rng(27), 2, 3, "categorical", hidden=(4,))
        obs = np.random.default_rng(28).normal(size=(10, 2))
        a1, l1 = sample_action(params, obs, np.random.default_rng(99))
        a2, l2 = sample_action(params, obs, np.random.default_rng(99))
        np.testing.assert_array_equal(a1, a2)
        np.testing.assert_array_equal(l1, l2)

    def test_draw_above_last_cumulative_picks_last_action(self):
        # seven equal logits: the cumulative row ends at 0.9999999999999998,
        # below the largest draw, which must land on the last action
        params = init_mlp(np.random.default_rng(32), 2, 7, "categorical", hidden=())
        params.tensors["w0"][:] = 0.0
        actions, logp = sample_action(params, np.zeros((3, 2)), TopRng())
        np.testing.assert_array_equal(actions, [6, 6, 6])
        np.testing.assert_allclose(logp, np.full(3, -math.log(7.0)), rtol=1e-15)

    def test_draw_above_last_cumulative_skips_zero_probability_action(self):
        # an eighth action whose probability underflows to zero: the largest
        # draw must land on the last action of positive probability
        params = init_mlp(np.random.default_rng(32), 2, 8, "categorical", hidden=())
        params.tensors["w0"][:] = 0.0
        params.tensors["b0"][7] = -1000.0
        actions, logp = sample_action(params, np.zeros((3, 2)), TopRng())
        np.testing.assert_array_equal(actions, [6, 6, 6])
        np.testing.assert_allclose(logp, np.full(3, -math.log(7.0)), rtol=1e-15)

    def test_deterministic_actions(self):
        cat = init_mlp(np.random.default_rng(29), 2, 3, "categorical", hidden=(4,))
        obs = np.random.default_rng(30).normal(size=(6, 2))
        np.testing.assert_array_equal(
            deterministic_action(cat, obs), np.argmax(mlp_forward(cat, obs), axis=1)
        )
        gauss = init_mlp(np.random.default_rng(31), 2, 2, "gaussian", hidden=(4,))
        np.testing.assert_array_equal(deterministic_action(gauss, obs), mlp_forward(gauss, obs))


class TestGradientChecks:
    def test_value_style_loss(self):
        params = init_mlp(np.random.default_rng(32), 3, 1, "value", hidden=(5,))
        obs = np.random.default_rng(33).normal(size=(8, 3))
        targets = np.random.default_rng(34).normal(size=8)

        def build():
            v, vjp = value_vjp(params, obs)
            r = v - targets
            return float(np.mean(np.square(r))), vjp(2.0 * r / r.size)

        assert finite_difference_max_rel_err(build, params) <= 1e-4

    def test_log_prob_losses_both_heads(self):
        obs = np.random.default_rng(35).normal(size=(6, 3))
        cat = init_mlp(np.random.default_rng(36), 3, 3, "categorical", hidden=(5,))
        actions = np.array([0, 2, 1, 1, 0, 2])

        def build_cat():
            logp, vjp = policy_log_prob_vjp(cat, obs, actions)
            return float(np.mean(logp)), vjp(np.full(logp.size, 1.0 / logp.size))

        assert finite_difference_max_rel_err(build_cat, cat) <= 1e-4

        gauss = init_mlp(np.random.default_rng(37), 3, 2, "gaussian", hidden=(5,))
        acts = np.random.default_rng(38).normal(size=(6, 2))

        def build_gauss():
            logp, vjp = policy_log_prob_vjp(gauss, obs, acts)
            return float(np.mean(logp)), vjp(np.full(logp.size, 1.0 / logp.size))

        assert finite_difference_max_rel_err(build_gauss, gauss) <= 1e-4


def per_tensor_adam_step(params, grads, m, v, t, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Reference for `adam_step`: the per-tensor update that the flat one
    replaced, with fresh moment arrays every step."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    for name, p in params.tensors.items():
        g = grads[name]
        m[name] = beta1 * m[name] + (1.0 - beta1) * g
        v[name] = beta2 * v[name] + (1.0 - beta2) * np.square(g)
        m_hat = m[name] / c1
        v_hat = v[name] / c2
        p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdam:
    @pytest.mark.parametrize("head, out_dim", [("value", 1), ("gaussian", 2), ("categorical", 3)])
    def test_flat_update_matches_per_tensor_reference(self, head, out_dim):
        params = init_mlp(np.random.default_rng(80), 3, out_dim, head, hidden=(16, 8))
        ref = copy.deepcopy(params)
        m = {k: np.zeros_like(x) for k, x in ref.tensors.items()}
        v = {k: np.zeros_like(x) for k, x in ref.tensors.items()}
        state = init_adam_state(params)
        rng = np.random.default_rng(81)
        for t in range(1, 51):
            grads = np.empty_like(params.flat)
            for g in params.views(grads).values():
                g[...] = rng.normal(scale=10.0 ** rng.integers(-6, 3), size=g.shape)
            adam_step(params, grads.copy(), state, 3e-3)
            per_tensor_adam_step(ref, ref.views(grads), m, v, t, 3e-3)
        assert state.t == 50
        for k in ref.tensors:
            np.testing.assert_array_equal(params.tensors[k], ref.tensors[k])
            np.testing.assert_array_equal(params.views(state.m)[k], m[k])
            np.testing.assert_array_equal(params.views(state.v)[k], v[k])

    def test_first_step_is_signed_learning_rate(self):
        params = init_mlp(np.random.default_rng(39), 1, 1, "value", hidden=())
        params.tensors["w0"][:] = 1.0
        state = init_adam_state(params)
        adam_step(params, np.array([0.5, 0.0]), state, lr=1e-3)  # (w0, b0)
        # bias correction makes the very first step lr * g / (|g| + eps)
        assert params.tensors["w0"][0, 0] == pytest.approx(1.0 - 1e-3, abs=1e-10)
        assert state.t == 1

    def test_zero_gradients_do_not_move(self):
        params = init_mlp(np.random.default_rng(40), 2, 1, "value", hidden=(4,))
        before = {k: v.copy() for k, v in params.tensors.items()}
        state = init_adam_state(params)
        adam_step(params, np.zeros_like(params.flat), state, 1e-3)
        for k in before:
            np.testing.assert_array_equal(params.tensors[k], before[k])

    def test_descends_a_parabola(self):
        params = init_mlp(np.random.default_rng(41), 1, 1, "value", hidden=())
        params.tensors["w0"][:] = 1.0
        params.tensors["b0"][:] = 0.0
        state = init_adam_state(params)
        for _ in range(50):
            x = params.tensors["w0"][0, 0]
            adam_step(params, np.array([2.0 * x, 0.0]), state, 1e-2)
        assert abs(params.tensors["w0"][0, 0]) < 1.0

    def test_matches_reference_trajectory(self):
        params = init_mlp(np.random.default_rng(42), 2, 1, "value", hidden=(3,))
        reference = {k: v.copy() for k, v in params.tensors.items()}
        m = {k: np.zeros_like(v) for k, v in reference.items()}
        v2 = {k: np.zeros_like(v) for k, v in reference.items()}
        state = init_adam_state(params)
        rng = np.random.default_rng(43)
        for t in range(1, 11):
            grads = {k: rng.normal(size=val.shape) for k, val in reference.items()}
            adam_step(params, np.concatenate([g.ravel() for g in grads.values()]), state, 3e-4)
            for k in reference:
                m[k] = 0.9 * m[k] + 0.1 * grads[k]
                v2[k] = 0.999 * v2[k] + 0.001 * grads[k] ** 2
                m_hat = m[k] / (1.0 - 0.9**t)
                v_hat = v2[k] / (1.0 - 0.999**t)
                reference[k] = reference[k] - 3e-4 * m_hat / (np.sqrt(v_hat) + 1e-8)
        for k in reference:
            np.testing.assert_allclose(params.tensors[k], reference[k], atol=1e-15)


def per_tensor_norm(grads: dict[str, np.ndarray]) -> float:
    """Reference for `clip_global_norm`'s norm: tensor by tensor, as it was
    summed before gradients were one vector."""
    return math.sqrt(sum(float(np.sum(np.square(g))) for g in grads.values()))


class TestClipGlobalNorm:
    def test_rescales_above_threshold(self):
        grads = np.array([3.0, 0.0, 4.0])
        out = clip_global_norm(grads, 1.0)
        assert out is grads
        np.testing.assert_allclose(grads, [0.6, 0.0, 0.8], atol=1e-15)

    def test_leaves_small_gradients_alone(self):
        grads = np.array([0.3, 0.4])
        clip_global_norm(grads, 1.0)
        np.testing.assert_array_equal(grads, [0.3, 0.4])

    def test_huge_gradient_lands_on_the_bound(self):
        grads = np.full(100, 1e9)
        clip_global_norm(grads, 10.0)
        total = math.sqrt(float(np.sum(np.square(grads))))
        assert total <= 10.0 + 1e-9

    @pytest.mark.parametrize("head,out_dim", [("value", 1), ("gaussian", 2), ("categorical", 3)])
    def test_norm_and_decision_match_per_tensor_reference(self, head, out_dim):
        params = init_mlp(np.random.default_rng(92), 3, out_dim, head, (64, 64))
        rng = np.random.default_rng(93)
        for _ in range(40):
            flat = np.empty_like(params.flat)
            for g in params.views(flat).values():
                g[...] = rng.normal(scale=10.0 ** rng.integers(-4, 2), size=g.shape)
            ref = per_tensor_norm(params.views(flat))
            assert math.sqrt(float(flat @ flat)) == pytest.approx(ref, rel=1e-15)
            # thresholds far enough from the norm that no summation order flips them
            for max_norm in (0.5 * ref, ref * (1.0 - 1e-7), ref * (1.0 + 1e-7), 2.0 * ref):
                clipped = clip_global_norm(flat.copy(), max_norm)
                if ref > max_norm:
                    np.testing.assert_allclose(clipped, flat * (max_norm / ref), rtol=1e-15)
                else:
                    np.testing.assert_array_equal(clipped, flat)


class TestCheckpoint:
    def test_round_trip_with_adam(self, tmp_path):
        policy = init_mlp(np.random.default_rng(45), 3, 2, "gaussian", hidden=(8,))
        value = init_mlp(np.random.default_rng(46), 3, 1, "value", hidden=(8,))
        adam = {"policy": init_adam_state(policy), "value": init_adam_state(value)}
        adam["policy"].t = 7
        policy.views(adam["policy"].m)["w0"][:] = 0.25
        path = tmp_path / "ckpt.npz"
        save_checkpoint(path, {"policy": policy, "value": value}, adam)
        nets, adams = load_checkpoint(path)
        assert set(nets) == {"policy", "value"}
        assert nets["policy"].head == "gaussian"
        assert nets["value"].hidden == (8,)
        for name, tensor in policy.tensors.items():
            np.testing.assert_array_equal(nets["policy"].tensors[name], tensor)
        assert adams["policy"].t == 7
        np.testing.assert_array_equal(nets["policy"].views(adams["policy"].m)["w0"],
                                      np.full((3, 8), 0.25))

    def test_save_load_continue_matches_uninterrupted(self, tmp_path):
        obs = np.random.default_rng(83).normal(size=(32, 3))
        targets = np.random.default_rng(84).normal(size=32)
        actions = np.random.default_rng(85).normal(size=(32, 2))

        def fresh():
            nets = {"policy": init_mlp(np.random.default_rng(86), 3, 2, "gaussian", (8,)),
                    "value": init_mlp(np.random.default_rng(87), 3, 1, "value", (8,))}
            return nets, {k: init_adam_state(p) for k, p in nets.items()}

        def run(nets, adams, steps):
            for _ in range(steps):
                v, vjp = value_vjp(nets["value"], obs)
                adam_step(nets["value"], vjp((v - targets) / v.size), adams["value"], 1e-2)
                logp, vjp = policy_log_prob_vjp(nets["policy"], obs, actions)
                adam_step(nets["policy"], vjp(np.full(logp.size, -1.0 / logp.size)),
                          adams["policy"], 1e-2)

        whole = fresh()
        run(*whole, 20)
        half = fresh()
        run(*half, 10)
        save_checkpoint(tmp_path / "half.npz", *half)
        resumed = load_checkpoint(tmp_path / "half.npz")
        run(*resumed, 10)
        save_checkpoint(tmp_path / "whole.npz", *whole)
        save_checkpoint(tmp_path / "resumed.npz", *resumed)
        assert resumed[1]["policy"].t == 20
        assert (tmp_path / "resumed.npz").read_bytes() == (tmp_path / "whole.npz").read_bytes()

    def test_round_trip_without_adam(self, tmp_path):
        value = init_mlp(np.random.default_rng(47), 2, 1, "value", hidden=(4,))
        path = tmp_path / "bare.npz"
        save_checkpoint(path, {"value": value})
        nets, adams = load_checkpoint(path)
        assert adams == {}
        np.testing.assert_array_equal(nets["value"].tensors["w1"], value.tensors["w1"])


def test_full_cycle_bitwise_reproducible():
    def run():
        params = init_mlp(np.random.default_rng(50), 3, 1, "value", hidden=(6,))
        state = init_adam_state(params)
        obs = np.random.default_rng(51).normal(size=(16, 3))
        targets = np.random.default_rng(52).normal(size=16)
        for _ in range(3):
            v, vjp = value_vjp(params, obs)
            grads = vjp(2.0 * (v - targets) / v.size)
            clip_global_norm(grads, 10.0)
            adam_step(params, grads, state, 3e-4)
        return params

    a, b = run(), run()
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])


class TestPolicyForward:
    """The categorical head's distribution, as `categorical_rows` reads it off
    the logits."""

    def test_categorical_rows_are_distributions(self):
        params = init_mlp(np.random.default_rng(60), 3, 4, "categorical", (8,))
        obs = np.random.default_rng(61).normal(size=(6, 3))
        cum, logp = categorical_rows(mlp_forward(params, obs))
        probs = np.exp(logp)
        assert cum.shape == logp.shape == (6, 4)
        assert np.all(probs > 0.0)
        np.testing.assert_allclose(probs.sum(axis=1), np.ones(6), atol=1e-12)
        np.testing.assert_allclose(cum, np.cumsum(probs, axis=1), atol=1e-12)

    def test_categorical_probs_match_log_probs(self):
        params = init_mlp(np.random.default_rng(62), 2, 3, "categorical", (5,))
        obs = np.random.default_rng(63).normal(size=(4, 2))
        _, logp_all = categorical_rows(mlp_forward(params, obs))
        for a in range(3):
            logp = policy_log_prob(params, obs, np.full(4, a))
            np.testing.assert_allclose(np.exp(logp_all[:, a]), np.exp(logp), rtol=1e-12)

    def test_categorical_argmax_agrees_with_deterministic_action(self):
        params = init_mlp(np.random.default_rng(64), 3, 3, "categorical", (8,))
        obs = np.random.default_rng(65).normal(size=(5, 3))
        _, logp = categorical_rows(mlp_forward(params, obs))
        np.testing.assert_array_equal(np.argmax(logp, axis=1), deterministic_action(params, obs))


def one_hot_case(n_states, rows, head, out_dim, seed):
    """A (64, 64) network with every parameter drawn, and a one-hot batch
    with the state of each row."""
    rng = np.random.default_rng(seed)
    params = init_mlp(rng, n_states, out_dim, head, (64, 64))
    params.flat[...] = rng.normal(scale=0.5, size=params.flat.shape)
    states = rng.integers(0, n_states, rows)
    return params, np.eye(n_states)[states], states, rng


def same_bits(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


class TestDistinctPass:
    """At the shapes training uses, one pass over the distinct one-hot rows
    gives the dense pass's bits: the output, every layer input, each hidden
    slope and the whole gradient.  The distinct pass rests on this BLAS
    property; the probe only decides whether to use it."""

    @pytest.mark.parametrize("head,out_dim", [("value", 1), ("categorical", 2)])
    @pytest.mark.parametrize("rows", [256, 2048])
    @pytest.mark.parametrize("n_states", [2, 4, 6])
    def test_distinct_equals_dense_bitwise(self, n_states, rows, head, out_dim):
        params, obs, states, rng = one_hot_case(n_states, rows, head, out_dim, seed=n_states)
        dense_acts: list = []
        dense = mlp_forward(params, obs, dense_acts)
        out, acts, slopes = nn._distinct_forward(params, states, keep=True)
        assert same_bits(out, dense)
        assert len(acts) == len(dense_acts) == 3
        assert all(same_bits(a, d) for a, d in zip(acts, dense_acts))
        assert all(same_bits(s, 1.0 - np.square(d)) for s, d in zip(slopes, dense_acts[1:]))
        g_out = rng.normal(size=dense.shape)
        assert same_bits(backward(params, acts, g_out, slopes=slopes),
                         backward(params, dense_acts, g_out))

    @pytest.mark.parametrize("rows", [256, 2048])
    @pytest.mark.parametrize("n_states", [2, 4, 6])
    def test_helpers_with_states_equal_dense_bitwise(self, forward_rows, n_states, rows):
        value, obs, states, rng = one_hot_case(n_states, rows, "value", 1, seed=10 + n_states)
        policy, _, _, _ = one_hot_case(n_states, rows, "categorical", 2, seed=20 + n_states)
        actions = rng.integers(0, 2, rows)
        g = rng.normal(size=rows)
        v, vjp = value_vjp(value, obs, states)
        v_dense, vjp_dense = value_vjp(value, obs)
        assert same_bits(v, v_dense) and same_bits(vjp(g), vjp_dense(g))
        assert same_bits(value_forward(value, obs, states), v_dense)
        logp, vjp = policy_log_prob_vjp(policy, obs, actions, states)
        logp_dense, vjp_dense = policy_log_prob_vjp(policy, obs, actions)
        assert same_bits(logp, logp_dense) and same_bits(vjp(g), vjp_dense(g))
        assert same_bits(policy_log_prob(policy, obs, actions, states), logp_dense)
        assert all(nn._DISTINCT_OK.values()) and len(nn._DISTINCT_OK) == 2

    def test_probe_runs_once_per_shape(self, forward_rows):
        params, obs, states, _ = one_hot_case(4, 256, "value", 1, seed=1)
        value_forward(params, obs, states)
        assert forward_rows == [256, 4, 4]  # the probe's two passes, then the distinct one
        value_forward(params, obs, states)
        value_vjp(params, obs, states)
        assert forward_rows == [256, 4, 4, 4, 4]
        assert nn._DISTINCT_OK == {(4, (64, 64), 1, 256): True}

    def test_probe_mismatch_keeps_the_shape_dense(self, forward_rows, monkeypatch):
        probes = []
        monkeypatch.setattr(nn, "_probe", lambda *args: probes.append(args) or False)
        params, obs, states, rng = one_hot_case(4, 256, "value", 1, seed=2)
        g = rng.normal(size=256)
        for _ in range(2):
            v, vjp = value_vjp(params, obs, states)
            v_dense, vjp_dense = value_vjp(params, obs)
            assert same_bits(v, v_dense) and same_bits(vjp(g), vjp_dense(g))
        assert len(probes) == 1
        assert forward_rows == [256] * 4
        assert nn._DISTINCT_OK == {(4, (64, 64), 1, 256): False}
        out, acts, slopes = nn._forward(params, obs, states, keep=True)
        assert slopes is None and acts[0] is not None and len(out) == 256

    @pytest.mark.parametrize("rows", [1, 255, 257, 2049])
    def test_row_counts_off_a_multiple_of_4_stay_dense(self, forward_rows, rows):
        params, obs, states, _ = one_hot_case(4, rows, "categorical", 2, seed=3)
        policy_log_prob(params, obs, np.zeros(rows, dtype=np.int64), states)
        policy_log_prob_vjp(params, obs, np.zeros(rows, dtype=np.int64), states)
        assert forward_rows == [rows, rows]
        assert nn._DISTINCT_OK == {}

    def test_no_states_stays_dense(self, forward_rows):
        params, obs, _, _ = one_hot_case(4, 256, "value", 1, seed=4)
        value_forward(params, obs)
        value_vjp(params, obs)
        assert forward_rows == [256, 256]
        assert nn._DISTINCT_OK == {}

    def test_distinct_rows_pad_by_repetition(self):
        np.testing.assert_array_equal(nn._distinct_rows(2), np.eye(2)[[0, 1, 0, 1]])
        np.testing.assert_array_equal(nn._distinct_rows(6), np.eye(6)[[0, 1, 2, 3, 4, 5, 0, 1]])
        assert nn._distinct_rows(4).shape == (4, 4)
        assert not nn._distinct_rows(4).flags.writeable
