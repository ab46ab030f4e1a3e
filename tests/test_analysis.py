import dataclasses
import itertools

import numpy as np
import pytest

from apo.analysis import (
    InducedChain,
    NumericalConditioningError,
    analysis_residuals,
    average_policy_iteration,
    average_reward,
    discounted_return,
    discounted_state_distribution,
    fundamental_matrix,
    kemeny_constant,
    mean_first_passage,
    stationary_distribution,
    value_functions,
)
from apo.cli import analysis_report
from apo.envs import switch_policy
from apo.mdp import (
    NotErgodicError,
    TabularPolicy,
    induced_reward,
    induced_transition,
    random_ergodic_mdp,
    random_policy,
)

GAMMAS = (0.5, 0.9, 0.99, 1.0)


def random_cases(n, seed=0, max_states=8, max_actions=4):
    rng = np.random.default_rng(seed)
    cases = []
    for _ in range(n):
        s = int(rng.integers(2, max_states + 1))
        a = int(rng.integers(2, max_actions + 1))
        mdp = random_ergodic_mdp(rng, s, a, reward_range=(-1.0, 1.0))
        cases.append((mdp, random_policy(rng, s, a)))
    return cases


def occupancy_series(p, d0, gamma, terms):
    # brute-force (1-g) * sum_t g^t d0 P^t, the defining series
    acc = np.zeros_like(d0)
    cur = np.array(d0, dtype=np.float64)
    scale = 1.0
    for _ in range(terms):
        acc += scale * cur
        cur = cur @ p
        scale *= gamma
    return (1.0 - gamma) * acc


class TestStationary:
    def test_two_state_oracles(self, two_state, uniform_policy, swap_policy):
        np.testing.assert_allclose(
            stationary_distribution(two_state, uniform_policy).probs, [0.5, 0.5], atol=1e-12
        )
        np.testing.assert_allclose(
            stationary_distribution(two_state, swap_policy).probs, [0.5, 0.5], atol=1e-12
        )
        # switch probs (0.8, 0.2) give the iid chain with next-state law [0.2, 0.8]
        np.testing.assert_allclose(
            stationary_distribution(two_state, switch_policy(0.8, 0.2)).probs,
            [0.2, 0.8],
            atol=1e-12,
        )

    def test_matches_long_run_power_of_transition(self):
        for mdp, pi in random_cases(10, seed=21):
            p = induced_transition(mdp, pi)
            limit = np.linalg.matrix_power(p, 1 << 13)[0]
            d = stationary_distribution(mdp, pi).probs
            np.testing.assert_allclose(d, limit, atol=1e-9)

    def test_multichain_raises(self, two_state):
        stay = TabularPolicy(np.array([[1.0, 0.0], [1.0, 0.0]]))
        with pytest.raises(NotErgodicError):
            stationary_distribution(two_state, stay)

    def test_unichain_with_transient_state_ok(self, two_state):
        # swap at 0, stay at 1: state 0 is transient, the chain is absorbed at 1
        pi = TabularPolicy(np.array([[0.0, 1.0], [1.0, 0.0]]))
        d = stationary_distribution(two_state, pi).probs
        np.testing.assert_allclose(d, [0.0, 1.0], atol=1e-12)


def start_at(mdp, d0):
    return dataclasses.replace(mdp, init_dist=d0)


class TestDiscountedOccupancy:
    def test_closed_form_from_state_zero(self, two_state, uniform_policy):
        # uniform policy gives the iid chain, so every step after the first is
        # an independent coin flip: d_g = [1 - g/2, g/2]
        from_zero = start_at(two_state, [1.0, 0.0])
        for g in (0.3, 0.9, 0.99):
            d = discounted_state_distribution(from_zero, uniform_policy, g)
            np.testing.assert_allclose(d.probs, [1.0 - g / 2.0, g / 2.0], atol=1e-12)

    def test_matches_truncated_series(self):
        for mdp, pi in random_cases(5, seed=33):
            p = induced_transition(mdp, pi)
            for g in (0.3, 0.9, 0.99):
                want = occupancy_series(p, mdp.init_dist, g, terms=6000)
                got = discounted_state_distribution(mdp, pi, g).probs
                np.testing.assert_allclose(got, want, atol=1e-10)

    def test_gamma_endpoints(self, two_state, uniform_policy):
        from_zero = start_at(two_state, [1.0, 0.0])
        d0 = discounted_state_distribution(from_zero, uniform_policy, 0.0)
        np.testing.assert_allclose(d0.probs, [1.0, 0.0], atol=1e-12)
        d1 = discounted_state_distribution(from_zero, uniform_policy, 1.0)
        np.testing.assert_allclose(d1.probs, [0.5, 0.5], atol=1e-12)

    def test_bad_d0_shape(self, two_state):
        # a misshaped start distribution never reaches a solve: the MDP refuses it
        with pytest.raises(ValueError, match="init_dist"):
            start_at(two_state, [1.0, 0.0, 0.0])


class TestReturns:
    def test_average_reward_oracles(self, two_state, uniform_policy):
        assert average_reward(two_state, uniform_policy) == pytest.approx(0.5, abs=1e-12)
        assert average_reward(two_state, switch_policy(0.8, 0.2)) == pytest.approx(0.8, abs=1e-12)

    def test_discounted_return_endpoints(self, two_state, uniform_policy):
        # g=0: only the first reward counts, weighted by the start distribution
        assert discounted_return(two_state, uniform_policy, 0.0) == pytest.approx(0.5, abs=1e-12)
        assert discounted_return(two_state, uniform_policy, 1.0) == pytest.approx(0.5, abs=1e-12)

    def test_gamma_out_of_range(self, two_state, uniform_policy):
        with pytest.raises(ValueError):
            discounted_return(two_state, uniform_policy, 1.5)


class TestFundamentalMatrix:
    def test_uniform_chain_is_identity(self, two_state, uniform_policy):
        # uniform policy makes P equal the rank-one matrix e d, so the
        # regularized resolvent is the identity at every discount
        for g in (0.3, 0.9, 1.0):
            np.testing.assert_allclose(
                fundamental_matrix(two_state, uniform_policy, g), np.eye(2), atol=1e-12
            )

    def test_swap_chain_at_discount_one(self, two_state, swap_policy):
        z = fundamental_matrix(two_state, swap_policy, 1.0)
        np.testing.assert_allclose(z, [[0.75, 0.25], [0.25, 0.75]], atol=1e-12)

    def test_defining_properties_random_sweep(self):
        for mdp, pi in random_cases(10, seed=5):
            for g in GAMMAS:
                res = analysis_residuals(InducedChain(mdp, pi), g)
                assert res["z_row_sums"] <= 1e-9
                assert res["z_stationary"] <= 1e-9
                assert res["z_resolvent"] <= 1e-9


class TestValues:
    def test_uniform_values_discount_free(self, two_state, uniform_policy):
        for g in (0.3, 0.9, 1.0):
            v, _, _ = value_functions(two_state, uniform_policy, g)
            np.testing.assert_allclose(v, [-0.5, 0.5], atol=1e-12)

    def test_uniform_q_and_advantage_table(self, two_state, uniform_policy):
        _, q, adv = value_functions(two_state, uniform_policy, 1.0)
        np.testing.assert_allclose(q, [[-1.0, 0.0], [1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(adv, [[-0.5, 0.5], [0.5, -0.5]], atol=1e-12)

    def test_symmetric_switch_closed_form(self, two_state):
        # switch prob p in both states: v = [-1/(4p), 1/(4p)] at discount one
        for p in (0.1, 0.25, 0.5, 0.9):
            v, _, _ = value_functions(two_state, switch_policy(p, p), 1.0)
            np.testing.assert_allclose(v, [-1.0 / (4 * p), 1.0 / (4 * p)], atol=1e-10)

    def test_zero_mean_invariant_sweep(self):
        for mdp, pi in random_cases(100, seed=17):
            d = stationary_distribution(mdp, pi).probs
            for g in GAMMAS:
                v, _, _ = value_functions(mdp, pi, g)
                assert abs(d @ v) <= 1e-9

    def test_bellman_and_policy_consistency(self):
        for mdp, pi in random_cases(10, seed=29):
            p = induced_transition(mdp, pi)
            r = induced_reward(mdp, pi)
            eta = average_reward(mdp, pi)
            for g in GAMMAS:
                v, q, adv = value_functions(mdp, pi, g)
                np.testing.assert_allclose(v, r - eta + g * (p @ v), atol=1e-9)
                np.testing.assert_allclose(np.sum(pi.probs * q, axis=1), v, atol=1e-9)
                np.testing.assert_allclose(adv, q - v[:, None], atol=0)

    def test_limit_to_average_values_is_monotone(self):
        for mdp, pi in random_cases(20, seed=41):
            v1, _, _ = value_functions(mdp, pi, 1.0)
            errs = []
            for g in (0.9, 0.99, 0.999):
                vg, _, _ = value_functions(mdp, pi, g)
                errs.append(np.max(np.abs(vg - v1)))
            assert errs[0] > errs[1] > errs[2]
            assert errs[2] < 0.1 * errs[0] + 1e-12


class TestPassageTimes:
    def test_two_state_oracles(self, two_state, uniform_policy, swap_policy):
        np.testing.assert_allclose(
            mean_first_passage(two_state, uniform_policy), [[2.0, 2.0], [2.0, 2.0]], atol=1e-10
        )
        np.testing.assert_allclose(
            mean_first_passage(two_state, swap_policy), [[2.0, 1.0], [1.0, 2.0]], atol=1e-10
        )

    def test_diagonal_is_recurrence_time(self):
        for mdp, pi in random_cases(10, seed=9):
            m = mean_first_passage(mdp, pi)
            d = stationary_distribution(mdp, pi).probs
            np.testing.assert_allclose(np.diag(m), 1.0 / d, atol=1e-9)

    def test_one_step_equations(self):
        for mdp, pi in random_cases(10, seed=13):
            res = analysis_residuals(InducedChain(mdp, pi), 1.0)
            assert res["passage_bellman"] <= 1e-9

    def test_needs_positive_stationary_mass(self, two_state):
        pi = TabularPolicy(np.array([[0.0, 1.0], [1.0, 0.0]]))
        with pytest.raises(NotErgodicError):
            mean_first_passage(two_state, pi)


class TestKemeny:
    def test_two_state_closed_form_grid(self, two_state):
        for p in (0.05, 0.2, 0.5, 0.8, 0.95):
            for q in (0.05, 0.3, 0.6, 0.95):
                got = kemeny_constant(two_state, switch_policy(p, q))
                assert got == pytest.approx(1.0 + 1.0 / (p + q), abs=1e-10)

    def test_at_least_one_and_row_free(self):
        for mdp, pi in random_cases(20, seed=3):
            k = kemeny_constant(mdp, pi)
            assert k >= 1.0 - 1e-12
            res = analysis_residuals(InducedChain(mdp, pi), 1.0)
            assert res["kemeny_row_spread"] <= 1e-9
            assert res["kemeny_trace_gap"] <= 1e-9


class TestPolicyIteration:
    def test_two_state_optimum(self, two_state):
        pi, eta = average_policy_iteration(two_state)
        assert eta == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(pi.probs, [[0.0, 1.0], [1.0, 0.0]], atol=0)

    def test_two_state_beats_all_deterministic_rivals(self, two_state):
        _, eta = average_policy_iteration(two_state)
        for actions in itertools.product(range(2), repeat=2):
            probs = np.zeros((2, 2))
            probs[np.arange(2), actions] = 1.0
            try:
                rival = average_reward(two_state, TabularPolicy(probs))
            except NotErgodicError:
                continue  # pure-stay is multichain; skip it
            assert rival <= eta + 1e-12

    def test_two_loop_prefers_long_loop(self, two_loop):
        pi, eta = average_policy_iteration(two_loop)
        assert eta == pytest.approx(0.25, abs=1e-12)
        assert np.argmax(pi.probs[0]) == 1  # LONG action at the fork

    def test_matches_exhaustive_enumeration(self):
        rng = np.random.default_rng(71)
        for _ in range(8):
            mdp = random_ergodic_mdp(rng, 4, 3, reward_range=(-1.0, 1.0))
            _, eta = average_policy_iteration(mdp)
            best = -np.inf
            for actions in itertools.product(range(3), repeat=4):
                probs = np.zeros((4, 3))
                probs[np.arange(4), actions] = 1.0
                best = max(best, average_reward(mdp, TabularPolicy(probs)))
            assert eta == pytest.approx(best, abs=1e-10)


class TestAnalyzeBundle:
    def test_residual_keys_and_magnitudes(self):
        mdp, pi = random_cases(1, seed=55)[0]
        res = analysis_residuals(InducedChain(mdp, pi), 0.9)
        expected_keys = {
            "stationary_balance",
            "z_row_sums",
            "z_stationary",
            "z_resolvent",
            "passage_bellman",
            "value_zero_mean",
            "kemeny_row_spread",
            "kemeny_trace_gap",
        }
        assert set(res) == expected_keys
        assert res["stationary_balance"] <= 1e-10
        assert all(val <= 1e-9 for val in res.values())

    def test_discount_recorded_and_consistent(self, two_state, uniform_policy):
        report = analysis_report(InducedChain(two_state, uniform_policy), 0.9)
        assert report["gamma"] == 0.9
        assert report["eta_avg"] == pytest.approx(0.5, abs=1e-12)
        assert report["kemeny"] == pytest.approx(2.0, abs=1e-10)
        v, q, adv = (np.array(report[k]) for k in ("v", "q", "adv"))
        np.testing.assert_allclose(adv, q - v[:, None], atol=0)
