"""Tests for rollout collection, the update rules, and the training loops."""

import copy
import math
import warnings
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apo import training
from apo.envs import TabularEnv, make_env, make_two_loop, make_two_state, switch_policy
from apo.mdp import Mdp, TabularPolicy, random_ergodic_mdp, sample_index
from apo.nn import (
    categorical_rows,
    deterministic_action,
    init_adam_state,
    init_mlp,
    mlp_forward,
    policy_log_prob,
    sample_action,
    value_forward,
)
from apo.training import (
    ENV_STREAM,
    EVAL_STREAM,
    INIT_STREAM,
    LOG_COLUMNS,
    SAMPLE_STREAM,
    NonFiniteLossError,
    RolloutBatch,
    TabularActor,
    TrainConfig,
    TrainerState,
    _algo_terms,
    _check_finite,
    _clipped_surrogate,
    _run,
    _sgd_epochs,
    collect_rollout,
    _value_targets,
    compute_residuals_and_advantages,
    evaluate,
    init_trainer,
    policy_loss,
    train,
    update_b,
    update_eta_hat,
    value_drift_experiment,
    value_loss,
)

from tests.conftest import TopRng, finite_difference_max_rel_err, trailing_zero_row


def tiny_config(**overrides) -> TrainConfig:
    base = dict(
        iterations=2,
        rollout_len=64,
        minibatch=32,
        epochs=2,
        hidden=(8,),
        eval_every=1,
        eval_horizon=40,
        eval_episodes=2,
        seed=7,
    )
    base.update(overrides)
    return TrainConfig(**base)


def seeded_env(name: str, seed: int):
    streams = np.random.SeedSequence(seed).spawn(4)
    return make_env(name, np.random.default_rng(streams[ENV_STREAM]))


def states_from_obs(obs: np.ndarray) -> np.ndarray:
    return np.argmax(obs, axis=1)


def random_mdp_8():
    """The 8-state, 4-action MDP whose row (0, 0) sums to 0.9999999999999998."""
    return random_ergodic_mdp(np.random.default_rng(0), 8, 4)


def eager_network_table(params):
    """Reference for `TabularActor` on a network: every state's row up front,
    each from the (1, S) forward on a row of the identity."""
    rows = []
    for x in np.eye(params.in_dim):
        logits = mlp_forward(params, x[None])
        cum, logp = categorical_rows(logits)
        rows.append((cum[0].tolist(), logp[0].tolist(), int(np.argmax(logits))))
    return rows


def eager_policy_table(policy):
    """Reference for `TabularActor` on a `TabularPolicy`: the eager 2-D build
    that per-state rows replaced."""
    with np.errstate(divide="ignore"):
        logp = np.log(policy.probs).tolist()
    return list(zip(np.cumsum(policy.probs, axis=1).tolist(), logp,
                    np.argmax(policy.probs, axis=1).tolist()))


def per_step_rollout(env, params, value, n_steps, rng):
    """Reference for `collect_rollout`: one `sample_action` forward per env step."""
    obs = env.observation()
    all_obs, actions, rewards, logps = [], [], [], []
    for _ in range(n_steps):
        all_obs.append(obs)
        a, logp = sample_action(params, obs[None], rng)
        action = int(a[0]) if params.head == "categorical" else a[0]
        result = env.step(action)
        actions.append(action)
        rewards.append(result.reward)
        logps.append(float(logp[0]))
        obs = result.next_observation
    all_obs.append(obs)
    all_obs = np.array(all_obs)
    values = value_forward(value, all_obs)
    return all_obs, np.array(actions), np.array(rewards), np.array(logps), values


def array_row_rollout(mdp, policy, value, state, n_steps, env_rng, rng):
    """Reference for `collect_rollout` with a `TabularActor` on a `TabularEnv`:
    the array-row loop that list rows replaced.  Each draw is a clamped
    ``np.searchsorted`` over a cumulative numpy row, the state is read back
    with ``np.argmax(obs)``, and the log-probability is a scalar ``np.log``.
    Returns the batch and the observation after the last step."""
    cum_env = np.cumsum(mdp.transition, axis=2)
    cum_pi = np.cumsum(policy.probs, axis=1)
    eye = np.eye(mdp.n_states)
    obs = eye[state]
    all_obs, actions, rewards, logps = [obs], [], [], []
    for _ in range(n_steps):
        s = int(np.argmax(obs))
        u = rng.random()
        a = min(int(np.searchsorted(cum_pi[s], u, side="right")), mdp.n_actions - 1)
        logps.append(float(np.log(policy.probs[s, a])))
        rewards.append(float(mdp.reward[s, a]))
        u = env_rng.random()
        nxt = min(int(np.searchsorted(cum_env[s, a], u, side="right")), mdp.n_states - 1)
        obs = eye[nxt]
        all_obs.append(obs)
        actions.append(a)
    all_obs = np.array(all_obs)
    values = value_forward(value, all_obs)
    return RolloutBatch(
        obs=all_obs[:-1],
        actions=np.array(actions, dtype=np.int64),
        rewards=np.array(rewards),
        old_log_prob=np.array(logps),
        value=values[:-1],
        next_value=values[1:],
    ), all_obs[-1]


class FixedRng:
    """Stub generator whose every uniform draw is ``u``."""

    def __init__(self, u: float):
        self.u = u

    def random(self):
        return self.u


def tabular_case(name: str) -> tuple[Mdp, TabularPolicy]:
    """An MDP and a behavior policy; the twoloop and random8-zeros policies
    put probability zero on some actions, the last action among them, and
    random64 has 512 distinct log-probabilities."""
    if name == "twostate":
        return make_two_state(), switch_policy(0.3, 0.8)
    if name == "twoloop":
        return make_two_loop(), TabularPolicy(
            np.array([[0.6, 0.4], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))
    if name == "random64":
        mdp = random_ergodic_mdp(np.random.default_rng(1), 64, 8)
        return mdp, TabularPolicy(np.random.default_rng(62).dirichlet(np.ones(8), size=64))
    probs = np.random.default_rng(62).dirichlet(np.ones(4), size=8)
    if name == "random8-zeros":
        probs[::2, 3] = 0.0
        probs[1::3, 0] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
    return random_mdp_8(), TabularPolicy(probs)


def manual_batch(states, rewards, v, eta_hat=None, actions=None):
    """Build a batch by hand from a state path and an exact value table."""
    states = np.asarray(states)
    n = states.shape[0] - 1
    n_states = int(states.max()) + 1
    obs = np.eye(n_states)[states]
    values = v[states]
    return RolloutBatch(
        obs=obs[:-1],
        actions=np.zeros(n, dtype=np.int64) if actions is None else np.asarray(actions),
        rewards=np.asarray(rewards, dtype=float),
        old_log_prob=np.zeros(n),
        value=values[:-1],
        next_value=values[1:],
    )


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    @pytest.mark.parametrize(
        "field,value,fragment",
        [
            ("algo", "sac", "algo"),
            ("alpha", 0.0, "alpha"),
            ("alpha", 1.5, "alpha"),
            ("beta", -1e-4, "beta"),
            ("lam", 1.2, "lam"),
            ("nu", -0.1, "nu"),
            ("gamma", 1.0, "gamma"),
            ("clip_eps", 0.0, "clip_eps"),
            ("iterations", 0, "iterations"),
            ("rollout_len", 0, "rollout_len"),
            ("grad_clip", 0.0, "grad_clip"),
            # NaN, wrong types and empty evaluations
            ("nu", math.nan, "nu"),
            ("nu", math.inf, "nu"),
            ("nu", True, "nu"),
            ("nu", "0.3", "nu"),
            ("beta", math.nan, "beta"),
            ("beta", math.inf, "beta"),
            ("grad_clip", math.nan, "grad_clip"),
            ("iterations", 2.0, "iterations"),
            ("rollout_len", 4096.0, "rollout_len"),
            ("epochs", True, "epochs"),
            ("minibatch", 32.0, "minibatch"),
            ("seed", 1.0, "seed"),
            ("eval_every", 2.5, "eval_every"),
            ("eval_horizon", 0, "eval_horizon"),
            ("eval_episodes", 0, "eval_episodes"),
            ("hidden", (8.0,), "hidden"),
            ("seed", -1, "seed"),
            ("eval_every", -1, "eval_every"),
        ],
    )
    def test_validate_rejects(self, field, value, fragment):
        cfg = TrainConfig(**{field: value})
        with pytest.raises(ValueError, match=fragment):
            cfg.validate()

    def test_validate_joins_multiple_problems(self):
        cfg = TrainConfig(alpha=0.0, nu=-1.0)
        with pytest.raises(ValueError) as err:
            cfg.validate()
        assert "alpha" in str(err.value) and "nu" in str(err.value)

    def test_minibatch_cannot_exceed_rollout(self):
        with pytest.raises(ValueError, match="minibatch"):
            TrainConfig(rollout_len=64, minibatch=128).validate()

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig.from_dict({"learning_rate": 1e-3})

    def test_from_dict_converts_hidden_list(self):
        cfg = TrainConfig.from_dict({"hidden": [16, 8], "seed": 3})
        assert cfg.hidden == (16, 8)
        assert cfg.seed == 3


class TestActors:
    def test_tabular_actor_log_prob_matches_policy(self):
        policy = switch_policy(0.8, 0.3)
        actor = TabularActor(policy)
        rng = np.random.default_rng(0)
        for s in (0, 1):
            a, logp = actor.act(s, rng)
            assert logp == float(np.log(policy.probs[s, a]))

    def test_tabular_actor_log_probs_match_scalar_log(self):
        # every action of 400 states, half of them with one action near
        # probability one, drawn at the lower edge of its cumulative interval
        rng = np.random.default_rng(66)
        probs = rng.dirichlet(np.full(10, 0.3), size=400)
        probs[::2] *= rng.uniform(0.0, 0.05, size=(200, 1))
        probs[::2, 0] = 1.0 - probs[::2, 1:].sum(axis=1)
        actor = TabularActor(TabularPolicy(probs))
        cum = np.cumsum(probs, axis=1)
        for s in range(400):
            for a in range(10):
                u = 0.0 if a == 0 else float(cum[s, a - 1])
                assert actor.act(s, FixedRng(u)) == (a, float(np.log(probs[s, a])))

    def test_tabular_actor_action_frequencies(self):
        actor = TabularActor(switch_policy(0.8, 0.3))
        rng = np.random.default_rng(1)
        draws = np.array([actor.act(0, rng)[0] for _ in range(5000)])
        # p_swap = 0.8, three sigma on the frequency of action 1
        assert abs(draws.mean() - 0.8) < 3.0 * math.sqrt(0.8 * 0.2 / 5000)

    def test_tabular_actor_draw_above_last_cumulative(self):
        policy = TabularPolicy(random_mdp_8().transition[:, 0, :])
        a, logp = TabularActor(policy).act(0, TopRng())
        assert a == 7
        assert logp == float(np.log(policy.probs[0, 7]))

    def test_tabular_actor_draw_above_last_cumulative_skips_zero_probability(self):
        policy = TabularPolicy(np.tile(trailing_zero_row(), (2, 1)))
        a, logp = TabularActor(policy).act(1, TopRng())
        assert a == 2
        assert logp == float(np.log(policy.probs[1, 2]))

    def test_network_table_matches_sample_action_on_every_state(self):
        policy = init_mlp(np.random.default_rng(70), 6, 3, "categorical", (8,))
        policy.tensors["w1"] *= 4.0  # spread the action probabilities
        actor = TabularActor(policy)
        for s in range(6):
            obs = np.eye(6)[s][None]
            rng, rng_ref = np.random.default_rng(71 + s), np.random.default_rng(71 + s)
            for _ in range(50):
                a_ref, logp_ref = sample_action(policy, obs, rng_ref)
                assert actor.act(s, rng) == (int(a_ref[0]), float(logp_ref[0]))
            assert actor.greedy(s) == int(deterministic_action(policy, obs)[0])

    def test_network_rows_built_on_first_visit(self, monkeypatch):
        # a random 1000-state MDP with three successors per (state, action):
        # a walk visits a few hundred states, and each visited state costs
        # one forward, whose row equals the table built up front
        n = 1000
        rng_mdp = np.random.default_rng(94)
        successors = rng_mdp.integers(0, n, size=(n, 2, 3))
        policy = init_mlp(np.random.default_rng(95), n, 2, "categorical", (16,))
        policy.tensors["w1"] *= 4.0  # spread the action probabilities
        eager = eager_network_table(policy)
        forwards = []
        monkeypatch.setattr(training, "mlp_forward",
                            lambda p, x: forwards.append(int(np.argmax(x))) or mlp_forward(p, x))
        actor = TabularActor(policy)
        assert forwards == []
        rng, rng_ref = np.random.default_rng(96), np.random.default_rng(96)
        s, actions = 0, set()
        for _ in range(600):
            a, logp = actor.act(s, rng)
            cum, logp_ref, _ = eager[s]
            a_ref = sample_index(cum, rng_ref.random())
            assert (a, logp) == (a_ref, logp_ref[a_ref])
            assert actor.greedy(s) == eager[s][2]
            actions.add(a)
            s = int(successors[s, a, rng_mdp.integers(3)])
        assert sorted(forwards) == sorted(set(forwards))
        assert 100 < len(forwards) < n
        assert actions == {0, 1}

    def test_policy_rows_built_on_first_visit(self):
        # the walk above under a 1000-state `TabularPolicy`, a quarter of its
        # states with one action of probability zero: only visited states get
        # a row, equal bit for bit to the eager 2-D build
        n = 1000
        rng_mdp = np.random.default_rng(94)
        successors = rng_mdp.integers(0, n, size=(n, 2, 3))
        probs = np.random.default_rng(97).dirichlet(np.ones(2), size=n)
        probs[::4] = [[0.0, 1.0], [1.0, 0.0]] * (n // 8)
        policy = TabularPolicy(probs)
        eager = eager_policy_table(policy)
        actor = TabularActor(policy)
        assert len(actor) == 0
        rng, rng_ref = np.random.default_rng(96), np.random.default_rng(96)
        s, visited, actions = 0, set(), set()
        for _ in range(600):
            a, logp = actor.act(s, rng)
            cum, logp_ref, greedy = eager[s]
            a_ref = sample_index(cum, rng_ref.random())
            assert (a, logp) == (a_ref, logp_ref[a_ref])
            assert actor.greedy(s) == greedy
            visited.add(s)
            actions.add(a)
            s = int(successors[s, a, rng_mdp.integers(3)])
        assert set(actor) == visited
        assert 100 < len(visited) < n
        assert actions == {0, 1}
        assert all(actor[s] == eager[s] for s in visited)

    @pytest.mark.parametrize("name", ["twostate", "twoloop", "random8", "random8-zeros",
                                      "random64"])
    def test_policy_rows_match_eager_table(self, name):
        _, policy = tabular_case(name)
        eager = eager_policy_table(policy)
        actor = TabularActor(policy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for s in reversed(range(len(eager))):
                actor.act(s, np.random.default_rng(s))
        assert [actor[s] for s in range(len(eager))] == eager

    def test_greedy_reads_probabilities_not_log_probabilities(self):
        # two adjacent doubles whose logarithms round to the same double
        p = 0.0079
        while np.log(p) != np.log(np.nextafter(p, 1.0)):
            p = np.nextafter(p, 1.0)
        q = np.nextafter(p, 1.0)
        row = np.concatenate([[p, q], np.full(126, (1.0 - p - q) / 126)])
        actor = TabularActor(TabularPolicy(np.tile(row, (2, 1))))
        assert [actor.greedy(s) for s in range(2)] == [1, 1]


class TestCollectRollout:
    def test_deterministic_alternation(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        env.state = 0
        value = init_mlp(np.random.default_rng(4), 2, 1, "value", (8,))
        batch = collect_rollout(env, switch_policy(1.0, 1.0), value, 6,
                                np.random.default_rng(5))
        np.testing.assert_array_equal(states_from_obs(batch.obs), [0, 1, 0, 1, 0, 1])
        np.testing.assert_array_equal(batch.rewards, [0, 1, 0, 1, 0, 1])
        np.testing.assert_array_equal(batch.actions, np.ones(6, dtype=np.int64))

    def test_next_value_is_shifted_value(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        value = init_mlp(np.random.default_rng(6), 2, 1, "value", (8,))
        batch = collect_rollout(env, switch_policy(0.5, 0.5), value, 40,
                                np.random.default_rng(7))
        np.testing.assert_array_equal(batch.next_value[:-1], batch.value[1:])
        np.testing.assert_array_equal(batch.next_value[-1:],
                                      value_forward(value, env.observation()[None]))

    def test_values_match_direct_critic_pass(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        value = init_mlp(np.random.default_rng(8), 2, 1, "value", (8,))
        batch = collect_rollout(env, switch_policy(0.5, 0.5), value, 16,
                                np.random.default_rng(9))
        full = np.concatenate([batch.obs, env.observation()[None]])
        recomputed = value_forward(value, full)
        np.testing.assert_array_equal(batch.value, recomputed[:-1])
        np.testing.assert_array_equal(batch.next_value, recomputed[1:])

    def test_no_reset_between_batches(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        value = init_mlp(np.random.default_rng(10), 2, 1, "value", (8,))
        policy = switch_policy(0.5, 0.5)
        rng = np.random.default_rng(11)
        collect_rollout(env, policy, value, 10, rng)
        after_first = env.observation()
        second = collect_rollout(env, policy, value, 10, rng)
        np.testing.assert_array_equal(second.obs[0], after_first)

    def test_neural_log_probs_match_batched_recompute(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        policy = init_mlp(np.random.default_rng(12), 2, 2, "categorical", (8,))
        value = init_mlp(np.random.default_rng(13), 2, 1, "value", (8,))
        batch = collect_rollout(env, policy, value, 50,
                                np.random.default_rng(14))
        recomputed = policy_log_prob(policy, batch.obs, batch.actions)
        np.testing.assert_allclose(batch.old_log_prob, recomputed,
                                   rtol=1e-12, atol=1e-13)

    @pytest.mark.parametrize("name", ["twostate", "twoloop", "random8"])
    def test_table_path_matches_per_step_loop(self, name):
        mdp = {"twostate": make_two_state, "twoloop": make_two_loop,
               "random8": random_mdp_8}[name]()
        n_states, n_actions = mdp.n_states, mdp.n_actions
        policy = init_mlp(np.random.default_rng(50), n_states, n_actions, "categorical", (16, 16))
        policy.tensors["w2"] *= 4.0  # spread the action probabilities
        value = init_mlp(np.random.default_rng(51), n_states, 1, "value", (16, 16))
        env_ref = TabularEnv(mdp, np.random.default_rng(52))
        env = TabularEnv(mdp, np.random.default_rng(52))
        rng_ref, rng = np.random.default_rng(53), np.random.default_rng(53)
        obs, actions, rewards, logps, values = per_step_rollout(
            env_ref, policy, value, 300, rng_ref)
        batch = collect_rollout(env, policy, value, 300, rng)
        np.testing.assert_array_equal(batch.obs, obs[:-1])
        np.testing.assert_array_equal(env.observation(), obs[-1])
        np.testing.assert_array_equal(batch.actions, actions)
        np.testing.assert_array_equal(batch.rewards, rewards)
        np.testing.assert_array_equal(batch.old_log_prob, logps)
        np.testing.assert_array_equal(batch.value, values[:-1])
        np.testing.assert_array_equal(batch.next_value, values[1:])
        assert len(set(actions.tolist())) > 1
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert env.rng.bit_generator.state == env_ref.rng.bit_generator.state
        assert env.state == env_ref.state

    def test_table_sees_parameter_changes_between_calls(self, two_loop):
        env = TabularEnv(two_loop, np.random.default_rng(0))
        policy = init_mlp(np.random.default_rng(54), 4, 2, "categorical", (8,))
        value = init_mlp(np.random.default_rng(55), 4, 1, "value", (8,))
        rng = np.random.default_rng(56)
        first = collect_rollout(env, policy, value, 60, rng)
        assert np.any(first.actions == 0)
        policy.tensors["b1"][:] = [-40.0, 40.0]
        second = collect_rollout(env, policy, value, 60, rng)
        np.testing.assert_array_equal(second.actions, np.ones(60, dtype=np.int64))
        np.testing.assert_allclose(second.old_log_prob,
                                   policy_log_prob(policy, second.obs, second.actions),
                                   rtol=1e-12, atol=1e-13)

    def test_table_draw_above_last_cumulative(self):
        # seven equal logits: every cumulative row ends below the largest
        # draw, which must land on the last action
        mdp = random_ergodic_mdp(np.random.default_rng(0), 8, 7)
        policy = init_mlp(np.random.default_rng(57), 8, 7, "categorical", ())
        policy.tensors["w0"][:] = 0.0
        value = init_mlp(np.random.default_rng(58), 8, 1, "value", ())
        batch = collect_rollout(TabularEnv(mdp, TopRng()), policy, value, 5,
                                TopRng())
        np.testing.assert_array_equal(batch.actions, np.full(5, 6))
        np.testing.assert_allclose(batch.old_log_prob, np.full(5, -math.log(7.0)), rtol=1e-15)

    @pytest.mark.parametrize("name", ["twostate", "twoloop", "random8", "random8-zeros",
                                      "random64"])
    def test_tabular_actor_matches_array_row_loop(self, name):
        mdp, policy = tabular_case(name)
        value = init_mlp(np.random.default_rng(63), mdp.n_states, 1, "value", (8,))
        env = TabularEnv(mdp, np.random.default_rng(64))
        env_rng, state = copy.deepcopy(env.rng), env.state
        rng, rng_ref = np.random.default_rng(65), np.random.default_rng(65)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = collect_rollout(env, policy, value, 4000, rng)
            ref, ref_last = array_row_rollout(mdp, policy, value, state, 4000, env_rng, rng_ref)
        for f in fields(RolloutBatch):
            got, want = getattr(batch, f.name), getattr(ref, f.name)
            if want is None:
                assert got is None
            else:
                assert got.dtype == want.dtype and got.shape == want.shape, f.name
                np.testing.assert_array_equal(got, want, err_msg=f.name)
        assert np.all(np.isfinite(batch.old_log_prob))
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert env.rng.bit_generator.state == env_rng.bit_generator.state
        np.testing.assert_array_equal(env.observation(), ref_last)

    def test_gaussian_rollout_on_pendulum(self):
        env = seeded_env("pendulum", 0)
        policy = init_mlp(np.random.default_rng(15), 3, 1, "gaussian", (8,))
        value = init_mlp(np.random.default_rng(16), 3, 1, "value", (8,))
        batch = collect_rollout(env, policy, value, 30,
                                np.random.default_rng(17))
        assert batch.actions.shape == (30, 1)
        assert np.all(batch.rewards <= 0.0)
        recomputed = policy_log_prob(policy, batch.obs, batch.actions)
        np.testing.assert_allclose(batch.old_log_prob, recomputed,
                                   rtol=1e-12, atol=1e-13)

    def test_gaussian_rollout_matches_per_step_loop(self):
        policy = init_mlp(np.random.default_rng(15), 3, 1, "gaussian", (8,))
        value = init_mlp(np.random.default_rng(16), 3, 1, "value", (8,))
        env, env_ref = seeded_env("pendulum", 0), seeded_env("pendulum", 0)
        rng, rng_ref = np.random.default_rng(17), np.random.default_rng(17)
        obs, actions, rewards, logps, values = per_step_rollout(
            env_ref, policy, value, 300, rng_ref)
        batch = collect_rollout(env, policy, value, 300, rng)
        assert batch.actions.dtype == np.float64 and batch.actions.shape == (300, 1)
        assert batch.obs.tobytes() == obs[:-1].tobytes()
        assert batch.actions.tobytes() == actions.tobytes()
        assert batch.rewards.tobytes() == rewards.tobytes()
        assert batch.old_log_prob.tobytes() == logps.tobytes()
        assert batch.value.tobytes() == values[:-1].tobytes()
        assert batch.next_value.tobytes() == values[1:].tobytes()
        assert rng.bit_generator.state == rng_ref.bit_generator.state
        assert env.rng.bit_generator.state == env_ref.rng.bit_generator.state
        assert (env.theta, env.theta_dot) == (env_ref.theta, env_ref.theta_dot)

    def test_long_run_reward_mean_matches_average_reward(self, two_state):
        # the uniform policy induces an iid chain, so the plain binomial
        # standard error is the honest yardstick
        env = TabularEnv(two_state, np.random.default_rng(0))
        value = init_mlp(np.random.default_rng(18), 2, 1, "value", (4,))
        n = 100_000
        batch = collect_rollout(env, switch_policy(0.5, 0.5), value, n,
                                np.random.default_rng(19))
        assert abs(batch.rewards.mean() - 0.5) < 3.0 * math.sqrt(0.25 / n)


class TestMovingAverages:
    def test_eta_hat_update_formula(self):
        state = TrainerState(None, None, None, None)
        batch = RolloutBatch(None, None, np.array([0.0, 1.0, 0.0, 1.0]), None,
                             None, None)
        update_eta_hat(state, batch, 0.1)
        assert state.eta_hat == 0.1 * 0.5
        update_eta_hat(state, batch, 0.1)
        assert state.eta_hat == pytest.approx(0.9 * 0.05 + 0.05, abs=1e-15)

    def test_alpha_one_jumps_to_batch_mean(self):
        state = TrainerState(None, None, None, None, eta_hat=123.0, b=-7.0)
        batch = RolloutBatch(None, None, np.array([0.25, 0.75]), None,
                             np.array([1.0, 3.0]), None)
        update_eta_hat(state, batch, 1.0)
        update_b(state, batch, 1.0)
        assert state.eta_hat == 0.5
        assert state.b == 2.0

    def test_b_uses_collection_time_values(self):
        state = TrainerState(None, None, None, None)
        values = np.array([0.5, -0.5, 1.5])
        batch = RolloutBatch(None, None, None, None, values, None)
        update_b(state, batch, 0.1)
        assert state.b == 0.1 * values.mean()

    def test_eta_hat_converges_on_two_state(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        value = init_mlp(np.random.default_rng(20), 2, 1, "value", (4,))
        policy = switch_policy(0.5, 0.5)
        state = TrainerState(None, None, None, None)
        rng = np.random.default_rng(21)
        for _ in range(200):
            batch = collect_rollout(env, policy, value, 128, rng)
            update_eta_hat(state, batch, 0.1)
        assert abs(state.eta_hat - 0.5) < 0.05


class TestResidualsAndAdvantages:
    def test_lambda_zero_gives_plain_residuals(self):
        rng = np.random.default_rng(22)
        batch = RolloutBatch(None, None, rng.normal(size=20), None,
                             rng.normal(size=20), rng.normal(size=20))
        compute_residuals_and_advantages(batch, 0.3, 0.0)
        expected = batch.rewards - 0.3 + batch.next_value - batch.value
        np.testing.assert_array_equal(batch.td_residual, expected)
        np.testing.assert_array_equal(batch.advantage, expected)

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        n=st.integers(1, 30),
        lam=st.floats(0.0, 1.0),
        discount=st.sampled_from([1.0, 0.97, 0.5]),
    )
    def test_advantages_match_double_sum(self, seed, n, lam, discount):
        rng = np.random.default_rng(seed)
        batch = RolloutBatch(None, None, rng.uniform(-1, 1, n), None,
                             rng.uniform(-1, 1, n), rng.uniform(-1, 1, n))
        eta = rng.uniform(-1, 1)
        compute_residuals_and_advantages(batch, eta, lam, discount)
        delta = batch.rewards - eta + discount * batch.next_value - batch.value
        decay = discount * lam
        expected = np.array(
            [sum(decay ** (t - i) * delta[t] for t in range(i, n)) for i in range(n)]
        )
        np.testing.assert_allclose(batch.advantage, expected, rtol=1e-10, atol=1e-12)

    def test_perfect_values_zero_everything(self):
        # deterministic swap chain: eta = 1/2 and the centered values are
        # -1/4 and +1/4, so every residual cancels exactly
        v = np.array([-0.25, 0.25])
        batch = manual_batch([0, 1, 0, 1, 0], [0.0, 1.0, 0.0, 1.0], v)
        compute_residuals_and_advantages(batch, 0.5, 0.9)
        np.testing.assert_array_equal(batch.td_residual, np.zeros(4))
        np.testing.assert_array_equal(batch.advantage, np.zeros(4))

    def test_value_targets_formula(self):
        rng = np.random.default_rng(23)
        batch = RolloutBatch(None, None, rng.normal(size=8), None,
                             rng.normal(size=8), rng.normal(size=8))
        expected = batch.rewards - 0.4 + 0.9 * batch.next_value - 0.3 * 2.0
        np.testing.assert_array_equal(_value_targets(batch, 0.4, 2.0, 0.3, 0.9), expected)


class TestLosses:
    def _swap_batch_with_critic(self):
        """Deterministic swap chain plus the critic that nails it."""
        value = init_mlp(np.random.default_rng(0), 2, 1, "value", ())
        value.tensors["w0"][:] = [[-0.25], [0.25]]
        value.tensors["b0"][:] = 0.0
        states = [0, 1] * 8 + [0]
        rewards = [0.0, 1.0] * 8
        batch = manual_batch(states, rewards, np.array([-0.25, 0.25]),
                             actions=np.ones(16, dtype=np.int64))
        return value, batch

    def test_value_loss_zero_at_perfect_fit(self):
        value, batch = self._swap_batch_with_critic()
        loss, grads = value_loss(value, batch, eta_hat=0.5, b=0.0, nu=0.0)
        assert loss == 0.0
        np.testing.assert_array_equal(grads, np.zeros_like(value.flat))

    def test_value_loss_targets_are_frozen(self):
        value, batch = self._swap_batch_with_critic()
        before, _ = value_loss(value, batch, 0.5, 0.0, 0.0)
        value.tensors["w0"][:] = [[1.0], [1.0]]
        after, _ = value_loss(value, batch, 0.5, 0.0, 0.0)
        # the parameters moved but the targets did not: the new loss is the
        # squared gap between the new predictions and the old targets
        preds = value_forward(value, batch.obs)
        targets = batch.rewards - 0.5 + batch.next_value
        expected = 0.5 * np.mean((preds - targets) ** 2)
        np.testing.assert_allclose(after, expected, rtol=1e-12)
        assert before == 0.0

    def test_value_loss_halved_square_oracle(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        value = init_mlp(np.random.default_rng(24), 2, 1, "value", (8,))
        batch = collect_rollout(env, switch_policy(0.5, 0.5), value, 32,
                                np.random.default_rng(25))
        loss, _ = value_loss(value, batch, 0.2, 1.0, 0.3, discount=0.95)
        preds = value_forward(value, batch.obs)
        targets = batch.rewards - 0.2 + 0.95 * batch.next_value - 0.3 * 1.0
        np.testing.assert_allclose(loss, 0.5 * np.mean((preds - targets) ** 2),
                                   rtol=1e-12)

    def test_policy_loss_requires_advantages(self):
        policy = init_mlp(np.random.default_rng(26), 2, 2, "categorical", (8,))
        batch = RolloutBatch(np.eye(2), np.zeros(2, dtype=np.int64),
                             np.zeros(2), np.zeros(2), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError, match="advantages"):
            policy_loss(policy, batch, 0.2)

    def test_policy_loss_at_collection_params(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        policy = init_mlp(np.random.default_rng(27), 2, 2, "categorical", (8,))
        value = init_mlp(np.random.default_rng(28), 2, 1, "value", (8,))
        batch = collect_rollout(env, policy, value, 64,
                                np.random.default_rng(29))
        compute_residuals_and_advantages(batch, 0.4, 0.9)
        loss, _ = policy_loss(policy, batch, 0.2)
        np.testing.assert_allclose(loss, -batch.advantage.mean(),
                                   rtol=1e-12, atol=1e-14)

    def test_zero_advantages_zero_gradient(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        policy = init_mlp(np.random.default_rng(30), 2, 2, "categorical", (8,))
        value = init_mlp(np.random.default_rng(31), 2, 1, "value", (8,))
        batch = collect_rollout(env, policy, value, 32,
                                np.random.default_rng(32))
        batch.advantage = np.zeros(32)
        _, grads = policy_loss(policy, batch, 0.2)
        np.testing.assert_array_equal(grads, np.zeros_like(policy.flat))

    def _ratio_two_batch(self, advantage_sign):
        policy = init_mlp(np.random.default_rng(33), 2, 2, "categorical", (8,))
        obs = np.eye(2)[np.array([0, 1, 0, 1])]
        actions = np.array([0, 1, 1, 0])
        logp_now = policy_log_prob(policy, obs, actions)
        batch = RolloutBatch(obs, actions, np.zeros(4), logp_now - np.log(2.0),
                             np.zeros(4), np.zeros(4))
        batch.advantage = advantage_sign * np.ones(4)
        return policy, batch

    def test_clip_plateau_kills_gradient(self):
        # ratio 2 with positive advantages lands on the clipped branch,
        # which is constant, so the gradient vanishes
        policy, batch = self._ratio_two_batch(+1.0)
        loss, grads = policy_loss(policy, batch, 0.2)
        np.testing.assert_allclose(loss, -1.2, rtol=1e-12)
        np.testing.assert_array_equal(grads, np.zeros_like(policy.flat))

    def test_negative_advantage_escapes_clip(self):
        # with negative advantages the min keeps the unclipped branch and
        # the gradient survives
        policy, batch = self._ratio_two_batch(-1.0)
        loss, grads = policy_loss(policy, batch, 0.2)
        np.testing.assert_allclose(loss, 2.0, rtol=1e-12)
        total = float(np.abs(grads).sum())
        assert total > 1e-3

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_overflowed_ratio_on_clipped_branch_passes_zero_gradient(self):
        # exp(800) overflows to inf; that sample sits on the clipped branch,
        # whose gradient is 0, not 0 * inf
        loss, grad = _clipped_surrogate(np.zeros(2), np.array([-800.0, 0.0]), np.ones(2), 0.2)
        assert loss == pytest.approx(-1.1, rel=1e-15)
        assert not np.isnan(grad).any()
        np.testing.assert_array_equal(grad, [0.0, -0.5])

    def test_surrogate_gradient_unchanged_where_ratio_is_finite(self):
        # against the product with the ratio taken everywhere, on ratios in
        # and out of the clip range and advantages of both signs and zero
        rng = np.random.default_rng(98)
        logp, old_logp = rng.normal(size=400), rng.normal(size=400)
        adv = rng.normal(size=400) * rng.integers(0, 2, size=400)
        ratio = np.exp(logp - old_logp)
        unclipped, clipped = ratio * adv, np.clip(ratio, 0.8, 1.2) * adv
        inside = (ratio >= 0.8) & (ratio <= 1.2)
        g, take = -1.0 / 400, unclipped <= clipped
        want = ((g * take) * adv + ((g * ~take) * adv) * inside) * ratio
        got = _clipped_surrogate(logp, old_logp, adv, 0.2)[1]
        assert got.tobytes() == want.tobytes()

    def test_minibatch_indices_select_rows(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        policy = init_mlp(np.random.default_rng(34), 2, 2, "categorical", (8,))
        value = init_mlp(np.random.default_rng(35), 2, 1, "value", (8,))
        batch = collect_rollout(env, policy, value, 16,
                                np.random.default_rng(36))
        compute_residuals_and_advantages(batch, 0.5, 0.9)
        idx = np.array([3, 7, 11])
        sub_loss, _ = policy_loss(policy, batch, 0.2, idx)
        np.testing.assert_allclose(sub_loss, -batch.advantage[idx].mean(), rtol=1e-12)

    def test_gradients_match_finite_differences(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        policy = init_mlp(np.random.default_rng(37), 2, 2, "categorical", (6, 4))
        value = init_mlp(np.random.default_rng(38), 2, 1, "value", (6, 4))
        batch = collect_rollout(env, policy, value, 24,
                                np.random.default_rng(39))
        compute_residuals_and_advantages(batch, 0.4, 0.9)
        err_v = finite_difference_max_rel_err(
            lambda: value_loss(value, batch, 0.4, 0.2, 0.3), value)
        err_p = finite_difference_max_rel_err(
            lambda: policy_loss(policy, batch, 0.2), policy)
        assert err_v < 1e-4
        assert err_p < 1e-4
        # the losses return one vector in the layout of params.flat
        assert value_loss(value, batch, 0.4, 0.2, 0.3)[1].shape == value.flat.shape
        assert policy_loss(policy, batch, 0.2)[1].shape == policy.flat.shape


class TestAlgoTerms:
    def test_ppo_terms(self):
        cfg = TrainConfig(algo="ppo", gamma=0.9, nu=0.3)
        assert _algo_terms(cfg) == (0.9, False, 0.0)

    def test_apo_terms(self):
        cfg = TrainConfig(algo="apo", gamma=0.9, nu=0.25)
        assert _algo_terms(cfg) == (1.0, True, 0.25)

    def test_check_finite_passes_and_raises(self):
        state = TrainerState(None, None, None, None, eta_hat=0.5, b=0.1, iteration=3)
        _check_finite(0.0, "policy loss", state)
        with pytest.raises(NonFiniteLossError) as err:
            _check_finite(float("nan"), "value loss", state)
        assert err.value.state is state
        assert "value loss" in str(err.value)
        assert "iteration 3" in str(err.value)

    def test_sgd_epochs_raises_on_poisoned_params(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        cfg = tiny_config()
        state = init_trainer(env, cfg, np.random.default_rng(40))
        batch = collect_rollout(env, switch_policy(0.5, 0.5),
                                state.value, 64, np.random.default_rng(41))
        state.value.tensors["w0"][0, 0] = np.nan
        with pytest.raises(NonFiniteLossError) as err:
            _sgd_epochs(
                lambda idx: value_loss(state.value, batch, 0.0, 0.0, 0.0, 1.0, idx),
                state.value, state.value_adam, cfg,
                np.random.default_rng(42), "value loss", state)
        assert err.value.state is state

    def test_sgd_epochs_names_non_finite_gradient_before_any_update(self, two_state, monkeypatch):
        env = TabularEnv(two_state, np.random.default_rng(0))
        cfg = tiny_config()
        state = init_trainer(env, cfg, np.random.default_rng(43))
        batch = collect_rollout(env, state.policy, state.value, 64,
                                np.random.default_rng(44))
        compute_residuals_and_advantages(batch, 0.0, 0.9)

        def poisoned(idx):  # a finite loss with a NaN gradient
            loss, grads = policy_loss(state.policy, batch, cfg.clip_eps, idx)
            grads[:] = np.nan
            return loss, grads

        state.iteration = 4
        # one Adam step first, so that the moments to keep are not zeros
        training.adam_step(state.policy, np.ones_like(state.policy.flat), state.policy_adam, 1e-3)
        before = copy.deepcopy((state.policy.flat, state.policy_adam))
        clipped = []
        monkeypatch.setattr(training, "clip_global_norm", lambda g, m: clipped.append(g))
        with pytest.raises(NonFiniteLossError) as err:
            _sgd_epochs(poisoned, state.policy, state.policy_adam, cfg,
                        np.random.default_rng(45), "policy loss", state)
        assert err.value.state is state
        assert "policy loss gradient for tensor 'w0'" in str(err.value)
        assert "iteration 4" in str(err.value)
        assert clipped == []
        np.testing.assert_array_equal(state.policy.flat, before[0])
        np.testing.assert_array_equal(state.policy_adam.m, before[1].m)
        np.testing.assert_array_equal(state.policy_adam.v, before[1].v)
        assert state.policy_adam.t == 1

    def test_sgd_epochs_names_the_first_non_finite_tensor(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        cfg = tiny_config()
        state = init_trainer(env, cfg, np.random.default_rng(46))
        batch = collect_rollout(env, switch_policy(0.5, 0.5),
                                state.value, 64, np.random.default_rng(47))

        def poisoned(idx):
            loss, grads = value_loss(state.value, batch, 0.0, 0.0, 0.0, 1.0, idx)
            state.value.views(grads)["b1"][0] = np.inf
            return loss, grads

        with pytest.raises(NonFiniteLossError, match="gradient for tensor 'b1'"):
            _sgd_epochs(poisoned, state.value, state.value_adam, cfg,
                        np.random.default_rng(48), "value loss", state)
        assert state.value_adam.t == 0


class TestPpoPathEquivalence:
    def test_one_iteration_matches_manual_composition(self):
        """The baseline path is the average-reward path with substitutions.

        Running train() with algo="ppo" for one iteration must be bitwise
        identical to composing the shared primitives by hand with eta_hat=0,
        b=0, bootstrap discount=gamma, nu=0, on the same seed streams.
        """
        cfg = tiny_config(algo="ppo", gamma=0.9, iterations=1, eval_every=0)
        log = train(seeded_env("twostate", cfg.seed), cfg)

        streams = np.random.SeedSequence(cfg.seed).spawn(4)
        env = make_env("twostate", np.random.default_rng(streams[ENV_STREAM]))
        init_rng = np.random.default_rng(streams[INIT_STREAM])
        sample_rng = np.random.default_rng(streams[SAMPLE_STREAM])
        state = init_trainer(env, cfg, init_rng)
        env.reset()
        state.iteration = 1
        batch = collect_rollout(env, state.policy, state.value,
                                cfg.rollout_len, sample_rng)
        compute_residuals_and_advantages(batch, 0.0, cfg.lam, cfg.gamma)
        _sgd_epochs(lambda idx: policy_loss(state.policy, batch, cfg.clip_eps, idx),
                    state.policy, state.policy_adam, cfg,
                    sample_rng, "policy loss", state)
        _sgd_epochs(lambda idx: value_loss(state.value, batch, 0.0, 0.0, 0.0,
                                           cfg.gamma, idx),
                    state.value, state.value_adam, cfg,
                    sample_rng, "value loss", state)

        for name, expected in state.policy.tensors.items():
            np.testing.assert_array_equal(log.state.policy.tensors[name], expected)
        for name, expected in state.value.tensors.items():
            np.testing.assert_array_equal(log.state.value.tensors[name], expected)

    def test_ppo_rows_keep_averages_at_zero(self):
        cfg = tiny_config(algo="ppo", eval_every=0)
        log = train(seeded_env("twostate", cfg.seed), cfg)
        for row in log.rows:
            assert row.eta_hat == 0.0
            assert row.b == 0.0


class TestTrainLoop:
    def test_logged_b_uses_collection_time_values(self):
        cfg = tiny_config(algo="apo", iterations=1, eval_every=0)
        log = train(seeded_env("twostate", cfg.seed), cfg)

        streams = np.random.SeedSequence(cfg.seed).spawn(4)
        env = make_env("twostate", np.random.default_rng(streams[ENV_STREAM]))
        init_rng = np.random.default_rng(streams[INIT_STREAM])
        sample_rng = np.random.default_rng(streams[SAMPLE_STREAM])
        state = init_trainer(env, cfg, init_rng)
        env.reset()
        batch = collect_rollout(env, state.policy, state.value,
                                cfg.rollout_len, sample_rng)
        assert log.rows[0].b == cfg.alpha * float(batch.value.mean())
        assert log.rows[0].eta_hat == cfg.alpha * float(batch.rewards.mean())
        assert log.rows[0].mean_value == float(batch.value.mean())

    def test_env_steps_column(self):
        cfg = tiny_config(iterations=3, eval_every=0)
        log = train(seeded_env("twostate", cfg.seed), cfg)
        assert [row.env_steps for row in log.rows] == [64, 128, 192]

    def test_eval_cadence(self):
        cfg = tiny_config(iterations=5, eval_every=2, eval_horizon=20,
                          eval_episodes=1)
        log = train(seeded_env("twostate", cfg.seed), cfg)
        evaluated = [row.iteration for row in log.rows
                     if not math.isnan(row.eval_avg_reward)]
        assert evaluated == [2, 4, 5]

    def test_eval_disabled(self):
        cfg = tiny_config(iterations=2, eval_every=0)
        log = train(seeded_env("twostate", cfg.seed), cfg)
        assert all(math.isnan(row.eval_avg_reward) for row in log.rows)

    def test_rerun_is_bitwise_reproducible(self, tmp_path):
        cfg = tiny_config()
        paths = []
        for tag in ("a", "b"):
            log = train(seeded_env("twostate", cfg.seed), cfg)
            path = tmp_path / f"run_{tag}.csv"
            log.write_csv(path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_csv_layout(self, tmp_path):
        cfg = tiny_config(iterations=2)
        log = train(seeded_env("twostate", cfg.seed), cfg)
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# algo=apo seed=7")
        assert "streams=SeedSequence(seed).spawn(4)->(env,init,sample,eval)" in lines[0]
        assert lines[1] == ",".join(LOG_COLUMNS)
        assert len(lines) == 2 + len(log.rows)
        first = lines[2].split(",")
        assert int(first[0]) == 1
        assert float(first[2]) == log.rows[0].eta_hat  # repr round-trips exactly

    def test_apo_improves_on_two_state(self):
        # short smoke run: the optimal policy earns 0.5 per step and even a
        # few iterations should move the evaluation well above uniform noise
        cfg = tiny_config(algo="apo", iterations=12, rollout_len=256,
                          minibatch=64, epochs=4, beta=3e-3, hidden=(16,),
                          eval_every=12, eval_horizon=200, eval_episodes=4,
                          seed=0)
        log = train(seeded_env("twostate", cfg.seed), cfg)
        assert log.rows[-1].eval_avg_reward >= 0.45

    def test_stream_constants(self):
        assert (ENV_STREAM, INIT_STREAM, SAMPLE_STREAM, EVAL_STREAM) == (0, 1, 2, 3)


class TestEvaluate:
    def test_swap_policy_scores_half_exactly(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        policy = init_mlp(np.random.default_rng(43), 2, 2, "categorical", ())
        policy.tensors["w0"][:] = [[0.0, 9.0], [0.0, 9.0]]
        policy.tensors["b0"][:] = 0.0
        # argmax always swaps, rewards alternate 0,1: any even horizon
        # averages to one half no matter where the episode starts
        assert evaluate(env, policy, 10, 3, np.random.default_rng(44)) == 0.5

    def test_constant_reward_environment(self):
        mdp = Mdp(
            transition=np.full((2, 2, 2), 0.5),
            reward=np.full((2, 2), 0.7),
            init_dist=np.array([0.5, 0.5]),
        )
        env = TabularEnv(mdp, np.random.default_rng(0))
        policy = init_mlp(np.random.default_rng(45), 2, 2, "categorical", (4,))
        score = evaluate(env, policy, 50, 2, np.random.default_rng(46))
        np.testing.assert_allclose(score, 0.7, rtol=1e-12)

    def test_tabular_argmax_matches_per_step_forward(self):
        mdp = random_mdp_8()
        policy = init_mlp(np.random.default_rng(59), 8, 4, "categorical", (8,))
        policy.tensors["w1"] *= 4.0
        got = evaluate(TabularEnv(mdp, np.random.default_rng(0)), policy, 40, 3,
                       np.random.default_rng(5))
        env, rng = TabularEnv(mdp, np.random.default_rng(0)), np.random.default_rng(5)
        per_episode = np.empty(3)
        greedy = set()
        for ep in range(3):
            obs = env.reset(rng)
            total = 0.0
            for _ in range(40):
                action = int(deterministic_action(policy, obs[None])[0])
                greedy.add(action)
                result = env.step(action)
                total += result.reward
                obs = result.next_observation
            per_episode[ep] = total / 40
        assert len(greedy) > 1
        assert got == float(per_episode.mean())

    def test_uses_supplied_rng_for_resets(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        policy = init_mlp(np.random.default_rng(47), 2, 2, "categorical", (4,))
        a = evaluate(env, policy, 8, 4, np.random.default_rng(5))
        b = evaluate(env, policy, 8, 4, np.random.default_rng(5))
        assert a == b


class TestInitTrainer:
    def test_discrete_env_gets_categorical_head(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        state = init_trainer(env, tiny_config(), np.random.default_rng(48))
        assert state.policy.head == "categorical"
        assert state.value.head == "value"
        assert state.policy.out_dim == 2
        assert state.eta_hat == 0.0 and state.b == 0.0

    def test_continuous_env_gets_gaussian_head(self):
        env = seeded_env("pendulum", 0)
        state = init_trainer(env, tiny_config(), np.random.default_rng(49))
        assert state.policy.head == "gaussian"
        assert "log_std" in state.policy.tensors

    def test_same_rng_same_params(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        s1 = init_trainer(env, tiny_config(), np.random.default_rng(50))
        s2 = init_trainer(env, tiny_config(), np.random.default_rng(50))
        for name in s1.policy.tensors:
            np.testing.assert_array_equal(s1.policy.tensors[name],
                                          s2.policy.tensors[name])


class TestValueDrift:
    def test_constraint_pins_critic_mean(self, two_state):
        # short version of the ablation: with the constraint off the critic
        # absorbs the warming average-reward estimate and drifts; with it on
        # the batch-mean value stays pinned near zero
        results = {}
        for nu in (0.0, 1.0):
            env = TabularEnv(two_state, np.random.default_rng(
                np.random.SeedSequence(0).spawn(4)[ENV_STREAM]))
            results[nu] = value_drift_experiment(
                env, switch_policy(0.5, 0.5), nu, iterations=60,
                rollout_len=128, minibatch=128, hidden=(16,), seed=0,
                eval_horizon=200, eval_episodes=3)
        assert results[1.0].mean_abs_b(15) < results[0.0].mean_abs_b(15)
        assert results[1.0].mean_abs_b(15) < 0.1

    def test_result_shape_and_metadata(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        res = value_drift_experiment(env, switch_policy(0.5, 0.5), 0.3,
                                     iterations=5, rollout_len=64,
                                     minibatch=64, hidden=(8,), seed=2,
                                     eval_horizon=50, eval_episodes=2)
        assert res.nu == 0.3
        assert res.seed == 2
        assert res.b_series.shape == (5,)
        assert res.eta_series.shape == (5,)
        assert np.all(np.isfinite(res.b_series))
        assert 0.0 <= res.final_eval_reward <= 1.0

    def test_final_eval_matches_greedy_hand_loop(self):
        # reference: the evaluation loop the experiment used to carry, which
        # followed the behavior policy's argmax from a spawned env
        mdp, behavior = tabular_case("random8")
        res = value_drift_experiment(TabularEnv(mdp, np.random.default_rng(0)), behavior,
                                     0.3, iterations=2, rollout_len=32, minibatch=32,
                                     hidden=(4,), seed=6, eval_horizon=60, eval_episodes=3)
        streams = np.random.SeedSequence(6).spawn(4)
        eval_env = TabularEnv(mdp, np.random.default_rng(streams[EVAL_STREAM].spawn(1)[0]))
        eval_rng = np.random.default_rng(streams[EVAL_STREAM])
        greedy = np.argmax(behavior.probs, axis=1)
        per_episode = np.empty(3)
        for ep in range(3):
            obs = eval_env.reset(eval_rng)
            total = 0.0
            for _ in range(60):
                result = eval_env.step(int(greedy[int(np.argmax(obs))]))
                total += result.reward
                obs = result.next_observation
            per_episode[ep] = total / 60
        assert len(set(greedy.tolist())) > 1
        assert res.final_eval_reward == float(per_episode.mean())

    @pytest.mark.parametrize(
        "overrides,fragment",
        [({"nu": math.nan}, "nu"), ({"nu": -1.0}, "nu"), ({"iterations": 0}, "iterations"),
         ({"eval_horizon": 0}, "eval_horizon")],
    )
    def test_rejects_what_train_rejects(self, two_state, overrides, fragment):
        kwargs = dict(nu=0.3, iterations=2, rollout_len=32, hidden=(4,)) | overrides
        env = TabularEnv(two_state, np.random.default_rng(0))
        with pytest.raises(ValueError, match=fragment):
            value_drift_experiment(env, switch_policy(0.5, 0.5), **kwargs)

    COUNTED = ("policy_loss", "compute_residuals_and_advantages", "policy_log_prob",
               "value_forward")

    def count_calls(self, monkeypatch) -> dict[str, int]:
        counts = dict.fromkeys(self.COUNTED, 0)
        for name in self.COUNTED:
            def counted(*args, _name=name, _fn=getattr(training, name), **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(training, name, counted)
        return counts

    def test_fixed_policy_does_no_policy_work(self, two_state, monkeypatch):
        counts = self.count_calls(monkeypatch)
        cfg = tiny_config(iterations=3, eval_every=3)
        log = _run(TabularEnv(two_state, np.random.default_rng(0)), cfg,
                   switch_policy(0.5, 0.5))
        assert counts == {"policy_loss": 0, "compute_residuals_and_advantages": 0,
                          "policy_log_prob": 0, "value_forward": 3}
        assert log.state.policy is None and log.state.policy_adam is None
        for row in log.rows:
            assert math.isnan(row.policy_loss)
            assert math.isnan(row.value_loss)
            assert math.isnan(row.approx_kl)
        assert [math.isnan(row.eval_avg_reward) for row in log.rows] == [True, True, False]

    def test_train_does_policy_work_every_iteration(self, two_state, monkeypatch):
        # one epoch of one minibatch: each counted call runs once per
        # iteration, the critic twice (rollout and logged loss)
        counts = self.count_calls(monkeypatch)
        cfg = tiny_config(iterations=3, epochs=1, minibatch=64)
        log = train(TabularEnv(two_state, np.random.default_rng(0)), cfg)
        assert counts == {"policy_loss": 3, "compute_residuals_and_advantages": 3,
                          "policy_log_prob": 3, "value_forward": 6}
        for row in log.rows:
            assert np.isfinite([row.policy_loss, row.value_loss, row.approx_kl]).all()

    def test_mean_abs_b_window(self):
        from apo.training import DriftResult

        res = DriftResult(nu=0.0, seed=0,
                          b_series=np.array([5.0, 1.0, -1.0, 2.0]),
                          eta_series=np.zeros(4), final_eval_reward=0.0)
        assert res.mean_abs_b(2) == 1.5
        assert res.mean_abs_b(10) == 2.25
