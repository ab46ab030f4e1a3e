import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apo.analysis import discounted_state_distribution, kemeny_constant, value_functions
from apo.bounds import (
    BoundReport,
    check_distribution_identity,
    check_matrix_identities,
    check_performance_bound,
    distribution_tv,
    epsilon_gamma,
    surrogate_objective,
    xi_gamma,
    xi_profile,
)
from apo.envs import switch_policy
from apo.mdp import StateDistribution, TabularPolicy, random_ergodic_mdp, random_policy

SWEEP_GAMMAS = (0.9, 0.99, 0.999, 1.0)


def random_triples(n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = int(rng.integers(2, 9))
        a = int(rng.integers(2, 5))
        mdp = random_ergodic_mdp(rng, s, a, reward_range=(-1.0, 1.0))
        out.append((mdp, random_policy(rng, s, a), random_policy(rng, s, a)))
    return out


class TestSurrogate:
    def test_two_state_hand_value(self, two_state, uniform_policy):
        new = switch_policy(0.8, 0.2)
        assert surrogate_objective(two_state, uniform_policy, new, 1.0) == pytest.approx(
            0.3, abs=1e-12
        )

    def test_identical_policies_give_zero(self, two_state, uniform_policy):
        assert surrogate_objective(two_state, uniform_policy, uniform_policy, 0.9) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_matches_expected_advantage_form(self):
        for mdp, p_old, p_new in random_triples(10, seed=2):
            for g in SWEEP_GAMMAS:
                d_old = (
                    discounted_state_distribution(mdp, p_old, g)
                    if g < 1.0
                    else None
                )
                adv = value_functions(mdp, p_old, g)[2]
                per_state = np.einsum("sa,sa->s", p_new.probs, adv)
                if d_old is None:
                    from apo.analysis import stationary_distribution

                    weights = stationary_distribution(mdp, p_old).probs
                else:
                    weights = d_old.probs
                want = float(weights @ per_state)
                got = surrogate_objective(mdp, p_old, p_new, g)
                assert got == pytest.approx(want, abs=1e-10)

    def test_matches_importance_sampling_monte_carlo(self):
        rng = np.random.default_rng(123)
        mdp = random_ergodic_mdp(rng, 5, 3, reward_range=(-1.0, 1.0))
        # smooth the old policy toward uniform so importance ratios stay tame
        raw = random_policy(rng, 5, 3)
        p_old = TabularPolicy(0.5 * raw.probs + 0.5 / 3.0)
        p_new = random_policy(rng, 5, 3)
        g = 0.9
        exact = surrogate_objective(mdp, p_old, p_new, g)

        d = discounted_state_distribution(mdp, p_old, g).probs
        adv = value_functions(mdp, p_old, g)[2]
        n_samples = 1_000_000
        states = rng.choice(5, size=n_samples, p=d)
        cum = np.cumsum(p_old.probs, axis=1)
        actions = (rng.random(n_samples)[:, None] > cum[states]).sum(axis=1)
        ratio = p_new.probs[states, actions] / p_old.probs[states, actions]
        samples = ratio * adv[states, actions]
        se = samples.std(ddof=1) / np.sqrt(n_samples)
        assert abs(samples.mean() - exact) <= 3.0 * se


class TestEpsilon:
    def test_two_state_pair(self, two_state, uniform_policy):
        new = switch_policy(0.8, 0.2)
        assert epsilon_gamma(two_state, uniform_policy, new, 1.0) == pytest.approx(0.3, abs=1e-12)

    def test_identical_policies(self, two_state, uniform_policy):
        assert epsilon_gamma(two_state, uniform_policy, uniform_policy, 1.0) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_swap_versus_stay(self, two_state, swap_policy):
        # advantages of the swap chain at the stay action are -0.5 and +0.5
        stay = TabularPolicy(np.array([[1.0, 0.0], [1.0, 0.0]]))
        assert epsilon_gamma(two_state, swap_policy, stay, 1.0) == pytest.approx(0.5, abs=1e-12)


class TestXi:
    def test_pinned_values(self):
        assert xi_gamma(0.0, 2.0) == 0.0
        assert xi_gamma(1.0, 2.0) == pytest.approx(1.0, abs=1e-12)
        assert xi_gamma(2.0 / 3.0, 2.0) == pytest.approx(2.0, abs=1e-12)

    def test_singular_point_falls_back_to_first_branch(self):
        # at g = (k-1)/k the second branch blows up; k=2 puts that at g=0.5
        assert xi_gamma(0.5, 2.0) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_chain(self):
        for g in (0.0, 0.3, 0.7, 1.0):
            assert xi_gamma(g, 1.0) == 0.0

    def test_kemeny_below_one_rejected(self):
        with pytest.raises(ValueError):
            xi_gamma(0.5, 0.9)

    def test_nan_kemeny_rejected(self):
        with pytest.raises(ValueError):
            xi_gamma(0.9, float("nan"))

    @given(
        st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_both_envelopes(self, g, k):
        xi = xi_gamma(g, k)
        if g < 1.0:
            assert xi <= g / (1.0 - g) + 1e-9
        assert xi <= 2.0 * (k - 1.0) + 1e-9

    def test_profile_peak_location_and_height(self):
        grid = np.linspace(0.0, 1.0, 1001)
        for k in (1.2, 1.5, 2.0, 5.0, 20.0):
            table = xi_profile(k, grid)
            np.testing.assert_array_equal(table[:, 0], grid)
            peak = table[:, 1].max()
            assert peak <= 2.0 * (k - 1.0) + 1e-9
            argmax = grid[int(np.argmax(table[:, 1]))]
            assert abs(argmax - (1.0 - 1.0 / (2.0 * k - 1.0))) <= 1e-3 + 1e-12

    def test_profile_known_peaks(self):
        # the true peak of 2(k-1) sits at 1 - 1/(2k-1); for k=1.5 that is
        # exactly on the grid, for k=2 the nearest grid point undershoots by
        # O(step * slope)
        grid = np.linspace(0.0, 1.0, 1001)
        assert xi_profile(2.0, grid)[:, 1].max() == pytest.approx(2.0, abs=5e-3)
        assert xi_profile(1.5, grid)[:, 1].max() == pytest.approx(1.0, abs=1e-12)


class TestDistributionTv:
    def test_basics(self):
        a = StateDistribution(np.array([0.5, 0.5]))
        b = StateDistribution(np.array([0.2, 0.8]))
        assert distribution_tv(a, a) == 0.0
        assert distribution_tv(a, b) == pytest.approx(0.3, abs=1e-12)
        assert distribution_tv(b, a) == pytest.approx(0.3, abs=1e-12)
        point0 = StateDistribution(np.array([1.0, 0.0]))
        point1 = StateDistribution(np.array([0.0, 1.0]))
        assert distribution_tv(point0, point1) == pytest.approx(1.0, abs=1e-12)

    def test_mismatched_lengths(self):
        with pytest.raises(ValueError):
            distribution_tv(
                StateDistribution(np.array([1.0])), StateDistribution(np.array([0.5, 0.5]))
            )


class TestPerformanceBound:
    def test_two_state_full_hand_computation(self, two_state, uniform_policy):
        report = check_performance_bound(two_state, uniform_policy, switch_policy(0.8, 0.2), 1.0)
        assert report.actual_diff == pytest.approx(0.3, abs=1e-12)
        assert report.surrogate == pytest.approx(0.3, abs=1e-12)
        assert report.eps_gamma == pytest.approx(0.3, abs=1e-12)
        assert report.kemeny_new == pytest.approx(2.0, abs=1e-10)
        assert report.xi_gamma == pytest.approx(1.0, abs=1e-10)
        assert report.exp_policy_tv == pytest.approx(0.3, abs=1e-12)
        assert report.dist_tv == pytest.approx(0.3, abs=1e-12)
        assert report.lower == pytest.approx(0.12, abs=1e-10)
        assert report.upper == pytest.approx(0.48, abs=1e-10)
        assert report.pdf_residual <= 1e-12
        assert report.holds_lower and report.holds_upper
        assert report.holds_prop1 and report.holds_prop2

    def test_identical_policies_tight(self, two_state, uniform_policy):
        report = check_performance_bound(two_state, uniform_policy, uniform_policy, 0.9)
        assert report.actual_diff == pytest.approx(0.0, abs=1e-12)
        assert report.lower == pytest.approx(0.0, abs=1e-12)
        assert report.upper == pytest.approx(0.0, abs=1e-12)
        assert report.holds_lower and report.holds_upper

    def test_report_fields_self_consistent(self):
        mdp, p_old, p_new = random_triples(1, seed=44)[0]
        r = check_performance_bound(mdp, p_old, p_new, 0.99)
        width = 2.0 * r.eps_gamma * r.xi_gamma * r.exp_policy_tv
        assert r.lower == r.surrogate - width
        assert r.upper == r.surrogate + width
        assert r.holds_lower == (r.actual_diff >= r.lower - 1e-9)
        assert r.holds_upper == (r.actual_diff <= r.upper + 1e-9)
        assert r.holds_prop2 == (r.dist_tv <= r.xi_gamma * r.exp_policy_tv + 1e-9)

    def test_random_sweep_never_violates(self):
        for mdp, p_old, p_new in random_triples(30, seed=7):
            for g in SWEEP_GAMMAS:
                r = check_performance_bound(mdp, p_old, p_new, g)
                assert r.pdf_residual <= 1e-9
                assert r.holds_lower and r.holds_upper
                assert r.holds_prop1 and r.holds_prop2

    def test_holds_from_arbitrary_start_distribution(self):
        mdp, p_old, p_new = random_triples(1, seed=91)[0]
        d0 = np.zeros(mdp.n_states)
        d0[0] = 1.0
        r = check_performance_bound(dataclasses.replace(mdp, init_dist=d0), p_old, p_new, 0.9)
        assert r.pdf_residual <= 1e-9
        assert r.holds_lower and r.holds_upper and r.holds_prop1 and r.holds_prop2

    def test_positive_lower_bound_certifies_improvement(self, two_state, uniform_policy):
        # non-vacuous instance: lower bound 0.12 > 0 and the true gain is 0.3
        report = check_performance_bound(two_state, uniform_policy, switch_policy(0.8, 0.2), 1.0)
        assert report.lower > 0
        assert report.actual_diff > 0
        # and the certificate is never wrong across the sweep
        for mdp, p_old, p_new in random_triples(20, seed=52):
            for g in SWEEP_GAMMAS:
                r = check_performance_bound(mdp, p_old, p_new, g)
                if r.lower > 0:
                    assert r.actual_diff > 0


class TestOccupancyIdentity:
    def test_identical_policies_zero(self, two_state, uniform_policy):
        assert check_distribution_identity(two_state, uniform_policy, uniform_policy, 0.9) == 0.0

    def test_two_state_pair(self, two_state, uniform_policy):
        res = check_distribution_identity(two_state, uniform_policy, switch_policy(0.8, 0.2), 0.9)
        assert res <= 1e-9

    def test_random_sweep(self):
        worst = 0.0
        for mdp, p_old, p_new in random_triples(30, seed=19):
            for g in SWEEP_GAMMAS:
                worst = max(worst, check_distribution_identity(mdp, p_old, p_new, g))
        assert worst <= 1e-8


class TestMatrixIdentities:
    def test_uniform_chain_discount_one(self, two_state, uniform_policy):
        rep = check_matrix_identities(two_state, uniform_policy, 1.0)
        assert rep.resolvent_difference_applicable
        assert rep.row_sum_residual <= 1e-12
        assert rep.min_entry >= -1e-12
        assert rep.resolvent_difference_residual <= 1e-12

    def test_swap_chain_inside_region(self, two_state, swap_policy):
        # Kemeny 1.5, so (1-0.9) * 1.5 = 0.15 < 1: the identity applies
        rep = check_matrix_identities(two_state, swap_policy, 0.9)
        assert rep.resolvent_difference_applicable
        assert rep.resolvent_difference_residual <= 1e-9

    def test_outside_region_skipped(self, two_state, uniform_policy):
        # Kemeny 2 and gamma 0.2 give (1-g)k = 1.6 >= 1
        assert kemeny_constant(two_state, uniform_policy) == pytest.approx(2.0, abs=1e-10)
        rep = check_matrix_identities(two_state, uniform_policy, 0.2)
        assert not rep.resolvent_difference_applicable
        assert rep.resolvent_difference_residual is None
        # the stochasticity claim is discount-free and still checked
        assert rep.row_sum_residual <= 1e-12
        assert rep.min_entry >= -1e-12

    def test_random_sweep(self):
        for mdp, pi, _ in random_triples(15, seed=61):
            for g in SWEEP_GAMMAS:
                rep = check_matrix_identities(mdp, pi, g)
                assert rep.row_sum_residual <= 1e-12
                assert rep.min_entry >= -1e-12
                if rep.resolvent_difference_applicable:
                    assert rep.resolvent_difference_residual <= 1e-8


def test_bound_report_is_frozen(two_state, uniform_policy):
    report = check_performance_bound(two_state, uniform_policy, uniform_policy, 1.0)
    assert isinstance(report, BoundReport)
    with pytest.raises(AttributeError):
        report.actual_diff = 1.0
