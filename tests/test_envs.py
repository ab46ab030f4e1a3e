import dataclasses
import math

import numpy as np
import pytest
from scipy import stats

from apo.analysis import (
    average_policy_iteration,
    average_reward,
    discounted_return,
    stationary_distribution,
)
from apo.envs import (
    TWO_LOOP_LONG,
    TWO_LOOP_SHORT,
    PendulumEnv,
    TabularEnv,
    make_env,
    make_two_loop,
    make_two_state,
)
from apo.mdp import Mdp, random_ergodic_mdp, write_mdp
from tests.conftest import TopRng, deterministic_policy, trailing_zero_row


class TestTabularEnv:
    def test_one_hot_observation(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        env.state = 1
        np.testing.assert_array_equal(env.observation(), [0.0, 1.0])
        assert env.obs_dim == 2
        assert env.n_actions == 2

    def test_always_swap_alternates_deterministically(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        env.state = 0
        states, rewards = [], []
        for _ in range(6):
            result = env.step(1)
            states.append(env.state)
            rewards.append(result.reward)
        assert states == [1, 0, 1, 0, 1, 0]
        assert rewards == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]

    def test_reward_is_for_the_pre_step_state(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        env.state = 1
        assert env.step(0).reward == 1.0

    def test_action_out_of_range(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(0))
        with pytest.raises(ValueError):
            env.step(2)
        with pytest.raises(ValueError):
            env.step(-1)

    def test_reset_follows_init_dist(self, two_state):
        env = TabularEnv(two_state, np.random.default_rng(7))
        hits = sum(env.reset()[0] for _ in range(2000))
        # Binomial(2000, 0.5): 3 sigma is about 67
        assert abs(hits - 1000) < 67

    def test_long_run_frequencies_and_reward(self, two_state, uniform_policy):
        # one million steps under the uniform policy; the induced chain is an
        # iid fair coin, so plain binomial error bars apply
        env = TabularEnv(two_state, np.random.default_rng(11))
        rng = np.random.default_rng(12)
        n = 1_000_000
        actions = rng.integers(0, 2, size=n)
        in_state_1 = 0
        reward_sum = 0.0
        for a in actions:
            reward_sum += env.step(int(a)).reward
            in_state_1 += env.state
        d = stationary_distribution(two_state, uniform_policy).probs
        eta = average_reward(two_state, uniform_policy)
        sigma = math.sqrt(0.25 / n)
        assert abs(in_state_1 / n - d[1]) <= 3.0 * sigma
        assert abs(reward_sum / n - eta) <= 3.0 * sigma

    def test_transition_frequencies_chi_square(self):
        mdp = random_ergodic_mdp(np.random.default_rng(3), 3, 2)
        env = TabularEnv(mdp, np.random.default_rng(4))
        n = 100_000
        for s in range(3):
            for a in range(2):
                counts = np.zeros(3)
                for _ in range(n):
                    env.state = s
                    env.step(a)
                    counts[env.state] += 1
                _, p_value = stats.chisquare(counts, n * mdp.transition[s, a])
                assert p_value > 1e-6, f"transition row ({s}, {a}) off: p={p_value}"

    def test_draw_above_last_cumulative_stays_in_range(self):
        # row (0, 0) of this MDP sums to 0.9999999999999998, below the
        # largest draw, which must land on the last state
        mdp = random_ergodic_mdp(np.random.default_rng(0), 8, 4)
        env = TabularEnv(mdp, TopRng())
        env.state = 0
        result = env.step(0)
        assert env.state == 7
        np.testing.assert_array_equal(result.next_observation, np.eye(8)[7])
        start = Mdp(transition=mdp.transition, reward=mdp.reward,
                    init_dist=mdp.transition[0, 0])
        np.testing.assert_array_equal(TabularEnv(start, TopRng()).reset(), np.eye(8)[7])

    def test_draw_above_last_cumulative_skips_zero_probability_state(self):
        row = trailing_zero_row()
        mdp = Mdp(transition=np.tile(row, (4, 1, 1)), reward=np.zeros((4, 1)), init_dist=row)
        env = TabularEnv(mdp, TopRng())
        assert env.state == 2
        env.state = 0
        result = env.step(0)
        assert env.state == 2
        np.testing.assert_array_equal(result.next_observation, np.eye(4)[2])

    def test_spawn_does_not_disturb_parent(self, two_state):
        env_a = TabularEnv(two_state, np.random.default_rng(0))
        env_b = TabularEnv(two_state, np.random.default_rng(0))
        child = env_a.spawn(np.random.default_rng(5))
        for _ in range(10):
            child.step(1)
        rng = np.random.default_rng(9)
        for a in rng.integers(0, 2, size=50):
            env_a.step(int(a))
            env_b.step(int(a))
            assert env_a.state == env_b.state


class TestTwoLoop:
    def test_shape_and_fork_actions(self, two_loop):
        assert two_loop.n_states == 4
        assert two_loop.n_actions == 2
        assert two_loop.reward[0, TWO_LOOP_SHORT] == 0.22
        assert two_loop.reward[0, TWO_LOOP_LONG] == 0.0

    def test_average_criterion_prefers_long(self, two_loop):
        long_pi = deterministic_policy([TWO_LOOP_LONG, 0, 0, 0], 2)
        short_pi = deterministic_policy([TWO_LOOP_SHORT, 0, 0, 0], 2)
        assert average_reward(two_loop, long_pi) == pytest.approx(0.25, abs=1e-12)
        assert average_reward(two_loop, short_pi) == pytest.approx(0.22, abs=1e-12)

    def test_discount_flips_the_preference(self, two_loop):
        # normalized returns from state 0: short pays 0.22 flat, long pays
        # (1-g) g^3 / (1 - g^4)
        long_pi = deterministic_policy([TWO_LOOP_LONG, 0, 0, 0], 2)
        short_pi = deterministic_policy([TWO_LOOP_SHORT, 0, 0, 0], 2)
        from_fork = dataclasses.replace(two_loop, init_dist=[1.0, 0.0, 0.0, 0.0])
        for g, long_should_win in ((0.9, False), (0.99, True)):
            long_val = discounted_return(from_fork, long_pi, g)
            short_val = discounted_return(from_fork, short_pi, g)
            assert short_val == pytest.approx(0.22, abs=1e-12)
            assert long_val == pytest.approx((1 - g) * g**3 / (1 - g**4), abs=1e-12)
            assert (long_val > short_val) == long_should_win

    def test_policy_iteration_confirms_long(self, two_loop):
        pi, eta = average_policy_iteration(two_loop)
        assert np.argmax(pi.probs[0]) == TWO_LOOP_LONG
        assert eta == pytest.approx(0.25, abs=1e-12)


class TestPendulum:
    def test_upright_rest_is_a_fixed_point(self):
        env = PendulumEnv(np.random.default_rng(0))
        env.theta = 0.0
        env.theta_dot = 0.0
        result = env.step(0.0)
        assert result.reward == 0.0
        assert env.theta == 0.0
        assert env.theta_dot == 0.0

    def test_rewards_never_positive(self):
        env = PendulumEnv(np.random.default_rng(1))
        rng = np.random.default_rng(2)
        for _ in range(500):
            r = env.step(rng.uniform(-3.0, 3.0)).reward
            assert r <= 0.0
            assert math.isfinite(r)

    def test_wrap_angle(self):
        assert PendulumEnv.wrap_angle(0.3) == pytest.approx(0.3, abs=1e-15)
        assert PendulumEnv.wrap_angle(math.pi) == pytest.approx(math.pi, abs=1e-15)
        assert PendulumEnv.wrap_angle(-math.pi) == pytest.approx(math.pi, abs=1e-15)
        assert PendulumEnv.wrap_angle(1.5 * math.pi) == pytest.approx(-0.5 * math.pi, abs=1e-12)
        assert PendulumEnv.wrap_angle(-7.0 * math.pi) == pytest.approx(math.pi, abs=1e-9)

    def test_torque_clamped(self):
        env_big = PendulumEnv(np.random.default_rng(0))
        env_max = PendulumEnv(np.random.default_rng(0))
        env_big.theta = env_max.theta = 1.0
        env_big.theta_dot = env_max.theta_dot = 0.5
        env_big.step(100.0)
        env_max.step(2.0)
        assert env_big.theta == env_max.theta
        assert env_big.theta_dot == env_max.theta_dot

    def test_speed_clamped(self):
        env = PendulumEnv(np.random.default_rng(0))
        for _ in range(200):
            env.step(2.0)
            assert abs(env.theta_dot) <= 8.0

    def test_reset_ranges(self):
        env = PendulumEnv(np.random.default_rng(5))
        for _ in range(200):
            env.reset()
            assert -math.pi <= env.theta <= math.pi
            assert -1.0 <= env.theta_dot <= 1.0

    def test_observation_layout(self):
        env = PendulumEnv(np.random.default_rng(0))
        env.theta = 0.7
        env.theta_dot = -2.0
        np.testing.assert_allclose(
            env.observation(), [math.cos(0.7), math.sin(0.7), -2.0], atol=1e-15
        )

    def test_non_finite_action_rejected(self):
        env = PendulumEnv(np.random.default_rng(0))
        with pytest.raises(ValueError):
            env.step(float("nan"))

    def test_energy_pumping_swing_up(self):
        # bang-bang torque in the direction of travel swings the pole from
        # hanging to near-upright well inside 400 steps
        env = PendulumEnv(np.random.default_rng(0))
        env.theta = math.pi
        env.theta_dot = 0.0
        for t in range(400):
            u = 2.0 if env.theta_dot >= 0 else -2.0
            env.step(u)
            if abs(PendulumEnv.wrap_angle(env.theta)) < 0.2:
                break
        else:
            pytest.fail("never got near upright")
        assert t < 400


class TestMakeEnv:
    def test_known_names(self):
        rng = np.random.default_rng(0)
        assert make_env("twostate", rng).n_actions == 2
        assert make_env("twoloop", rng).obs_dim == 4
        assert make_env("pendulum", rng).obs_dim == 3

    def test_file_env(self, tmp_path):
        mdp = random_ergodic_mdp(np.random.default_rng(8), 3, 2)
        path = tmp_path / "custom.json"
        write_mdp(mdp, path)
        env = make_env(f"file:{path}", np.random.default_rng(0))
        assert env.obs_dim == 3
        assert env.n_actions == 2

    def test_unknown_name(self):
        with pytest.raises(ValueError):
            make_env("cartpole", np.random.default_rng(0))

    def test_two_state_builder_matches_layout(self):
        mdp = make_two_state()
        np.testing.assert_array_equal(mdp.reward, [[0.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(mdp.transition[0, 1], [0.0, 1.0])
        np.testing.assert_array_equal(mdp.transition[1, 0], [0.0, 1.0])

    def test_two_loop_builder_is_valid(self):
        mdp = make_two_loop()
        from apo.mdp import validate_mdp

        assert validate_mdp(mdp).ok

    def test_handle_constructors(self):
        env = make_env("twostate", np.random.default_rng(0))
        env.state = 0
        env.step(1)
        assert env.state == 1
        pend = make_env("pendulum", np.random.default_rng(1))
        pend.reset()
        step = pend.step(0.5)
        assert np.isfinite(step.reward)
