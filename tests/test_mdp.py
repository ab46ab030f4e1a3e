import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apo.mdp import (
    GENERATOR_FLOOR,
    Mdp,
    MdpFileError,
    StateDistribution,
    TabularPolicy,
    induced_reward,
    induced_transition,
    is_ergodic,
    policy_distance,
    random_ergodic_mdp,
    random_policy,
    read_mdp,
    read_policy,
    sample_index,
    validate_mdp,
    write_mdp,
    write_policy,
)
from apo.envs import make_two_state, switch_policy
from tests.conftest import TopRng, trailing_zero_row


class TestContainers:
    def test_mdp_arrays_read_only(self, two_state):
        with pytest.raises(ValueError):
            two_state.transition[0, 0, 0] = 0.9

    def test_mdp_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Mdp(
                transition=np.ones((2, 2, 3)) / 3.0,
                reward=np.zeros((2, 2)),
                init_dist=np.array([0.5, 0.5]),
            )

    def test_policy_rows_must_sum_to_one(self):
        with pytest.raises(ValueError):
            TabularPolicy(np.array([[0.6, 0.6], [0.5, 0.5]]))

    def test_policy_rejects_nan(self):
        with pytest.raises(ValueError):
            TabularPolicy(np.array([[np.nan, 1.0], [0.5, 0.5]]))

    def test_state_distribution_clamps_tiny_negatives(self):
        d = StateDistribution(np.array([1.0 + 1e-13, -1e-13]))
        assert d.probs[1] == 0.0

    def test_state_distribution_rejects_real_negatives(self):
        with pytest.raises(ValueError):
            StateDistribution(np.array([1.1, -0.1]))

    def test_state_distribution_rejects_nan(self):
        with pytest.raises(ValueError):
            StateDistribution(np.array([np.nan, 2.0]))


class TestValidation:
    def test_clean_mdp_passes(self, two_state):
        result = validate_mdp(two_state)
        assert result.ok
        assert result.violations == []

    def test_row_sum_violation_located(self, two_state):
        t = two_state.transition.copy()
        t[1, 0, 0] += 0.2
        bad = Mdp(transition=t, reward=two_state.reward, init_dist=two_state.init_dist)
        result = validate_mdp(bad)
        kinds = {v.kind for v in result.violations}
        assert not result.ok
        assert "row-sum" in kinds
        rows = [v.where for v in result.violations if v.kind == "row-sum"]
        assert (1, 0) in rows

    def test_negative_probability_flagged(self, two_state):
        t = two_state.transition.copy()
        t[0, 0] = [1.3, -0.3]
        bad = Mdp(transition=t, reward=two_state.reward, init_dist=two_state.init_dist)
        kinds = {v.kind for v in validate_mdp(bad).violations}
        assert "prob-range" in kinds

    def test_init_dist_violations(self, two_state):
        bad = Mdp(
            transition=two_state.transition,
            reward=two_state.reward,
            init_dist=np.array([0.7, 0.7]),
        )
        kinds = {v.kind for v in validate_mdp(bad).violations}
        assert "init-sum" in kinds

    @pytest.mark.parametrize("kind", ["row-sum", "prob-range"])
    def test_nan_transition_fails_each_row_check(self, two_state, kind):
        t = two_state.transition.copy()
        t[0, 1] = [np.nan, 1.0]
        bad = Mdp(transition=t, reward=two_state.reward, init_dist=two_state.init_dist)
        result = validate_mdp(bad)
        assert not result.ok
        assert [v.where for v in result.violations if v.kind == kind] == [(0, 1)]

    @pytest.mark.parametrize("kind", ["init-sum", "init-range"])
    def test_nan_init_dist_fails_each_check(self, two_state, kind):
        bad = Mdp(
            transition=two_state.transition,
            reward=two_state.reward,
            init_dist=np.array([np.nan, 1.0]),
        )
        assert kind in {v.kind for v in validate_mdp(bad).violations}

    def test_non_finite_reward_flagged(self, two_state):
        r = two_state.reward.copy()
        r[0, 1] = np.inf
        bad = Mdp(transition=two_state.transition, reward=r, init_dist=two_state.init_dist)
        result = validate_mdp(bad)
        assert any(v.kind == "reward-finite" and v.where == (0, 1) for v in result.violations)


class TestInducedChain:
    def test_induced_transition_switch_policy(self, two_state):
        # pi swaps with prob 0.8 in state 0 and 0.2 in state 1:
        #   row 0: 0.2 * [1,0] + 0.8 * [0,1] = [0.2, 0.8]
        #   row 1: 0.2 * [0,1] + 0.8 * [1,0] -> stay prob 0.8 keeps state 1
        pi = switch_policy(0.8, 0.2)
        p = induced_transition(two_state, pi)
        np.testing.assert_allclose(p, [[0.2, 0.8], [0.2, 0.8]], atol=1e-12)

    def test_induced_reward_is_state_indicator(self, two_state, uniform_policy):
        r = induced_reward(two_state, uniform_policy)
        np.testing.assert_allclose(r, [0.0, 1.0], atol=1e-12)

    def test_induced_rows_are_distributions(self):
        rng = np.random.default_rng(3)
        mdp = random_ergodic_mdp(rng, 5, 3)
        pi = random_policy(rng, 5, 3)
        p = induced_transition(mdp, pi)
        np.testing.assert_allclose(p.sum(axis=1), np.ones(5), atol=1e-12)
        assert p.min() >= 0.0


class TestErgodicity:
    def test_uniform_policy_is_ergodic(self, two_state, uniform_policy):
        ok, witness = is_ergodic(two_state, uniform_policy)
        assert ok
        assert witness is None

    def test_pure_stay_is_not_ergodic(self, two_state):
        stay = TabularPolicy(np.array([[1.0, 0.0], [1.0, 0.0]]))
        ok, witness = is_ergodic(two_state, stay)
        assert not ok
        assert witness is not None
        src, tgt = witness
        assert src != tgt

    def test_periodic_swap_chain_counts_as_ergodic(self, two_state, swap_policy):
        # single closed communicating class; periodicity is allowed here
        ok, _ = is_ergodic(two_state, swap_policy)
        assert ok


class TestRandomGeneration:
    def test_generator_floor_and_normalization(self):
        rng = np.random.default_rng(0)
        mdp = random_ergodic_mdp(rng, 6, 3)
        assert validate_mdp(mdp).ok
        # floor then renormalize: smallest possible entry is floor / (1 + S * floor)
        lo = GENERATOR_FLOOR / (1.0 + 6 * GENERATOR_FLOOR)
        assert mdp.transition.min() >= lo - 1e-15

    def test_generated_mdps_ergodic_under_random_policies(self):
        gen_rng = np.random.default_rng(7)
        pol_rng = np.random.default_rng(8)
        for _ in range(5):
            n_states = int(gen_rng.integers(2, 9))
            n_actions = int(gen_rng.integers(2, 5))
            mdp = random_ergodic_mdp(gen_rng, n_states, n_actions)
            for _ in range(100):
                pi = random_policy(pol_rng, n_states, n_actions)
                ok, witness = is_ergodic(mdp, pi)
                assert ok, f"witness {witness} on {n_states}x{n_actions}"

    def test_reward_range_respected(self):
        rng = np.random.default_rng(11)
        mdp = random_ergodic_mdp(rng, 4, 2, reward_range=(-2.0, 3.0))
        assert mdp.reward.min() >= -2.0
        assert mdp.reward.max() <= 3.0

    def test_random_policy_rows(self):
        pi = random_policy(np.random.default_rng(1), 7, 4)
        np.testing.assert_allclose(pi.probs.sum(axis=1), np.ones(7), atol=1e-12)


def reference_expected_kl(p1, p2, weights):
    """The per-state loop `policy_distance` once ran, kept as its oracle."""
    a, b = p1.probs, p2.probs
    kl = np.zeros(p1.n_states)
    for s in range(p1.n_states):
        support = a[s] > 0.0
        if np.any(b[s][support] == 0.0):
            kl[s] = np.inf
        else:
            kl[s] = float(np.sum(a[s][support] * np.log(a[s][support] / b[s][support])))
    return float(weights.probs @ kl) if np.all(np.isfinite(kl)) else float("inf")


class TestPolicyDistance:
    def test_hand_worked_two_state_pair(self, uniform_policy):
        other = switch_policy(0.8, 0.2)
        # per-state TV: 0.5 * (|0.5-0.2| + |0.5-0.8|) = 0.3 in both states
        half = StateDistribution(np.array([0.5, 0.5]))
        dist = policy_distance(uniform_policy, other, half)
        np.testing.assert_allclose(dist.tv, [0.3, 0.3], atol=1e-12)
        assert dist.expected_tv == pytest.approx(0.3, abs=1e-12)

    def test_weights_reweight_expected_tv(self, uniform_policy):
        other = TabularPolicy(np.array([[0.5, 0.5], [0.0, 1.0]]))
        # state 0 identical, state 1 TV = 0.5
        dist = policy_distance(uniform_policy, other, StateDistribution(np.array([0.9, 0.1])))
        assert dist.expected_tv == pytest.approx(0.05, abs=1e-12)
        np.testing.assert_allclose(dist.tv, [0.0, 0.5], atol=1e-12)

    def test_kl_infinite_off_support(self, uniform_policy):
        degenerate = TabularPolicy(np.array([[1.0, 0.0], [1.0, 0.0]]))
        half = StateDistribution(np.array([0.5, 0.5]))
        dist = policy_distance(uniform_policy, degenerate, half)
        assert np.isinf(dist.expected_kl)

    def test_kl_zero_for_identical(self, uniform_policy):
        half = StateDistribution(np.array([0.5, 0.5]))
        dist = policy_distance(uniform_policy, uniform_policy, half)
        assert dist.expected_kl == pytest.approx(0.0, abs=1e-12)

    def test_kl_matches_reference_loop(self):
        rng = np.random.default_rng(8)
        n_inf = 0
        for trial in range(200):
            n_states, n_actions = int(rng.integers(1, 20)), int(rng.integers(1, 12))
            a = rng.dirichlet(np.ones(n_actions), size=n_states)
            b = rng.dirichlet(np.ones(n_actions), size=n_states)
            if trial % 2:
                # degenerate rows: zeros in both policies, some p1 mass off p2's support
                a[rng.random(a.shape) < 0.3] = 0.0
                b[rng.random(b.shape) < 0.2] = 0.0
                for x in (a, b):
                    x[x.sum(axis=1) == 0.0, -1] = 1.0
                    x /= x.sum(axis=1, keepdims=True)
            p1, p2 = TabularPolicy(a), TabularPolicy(b)
            w = StateDistribution(rng.dirichlet(np.ones(n_states)))
            got = policy_distance(p1, p2, w).expected_kl
            want = reference_expected_kl(p1, p2, w)
            if np.isinf(want):
                n_inf += 1
                assert got == np.inf
            else:
                # summing whole rows (zeros included) regroups numpy's pairwise
                # sum, so a finite value may move by a few float64 ulps
                assert got == pytest.approx(want, rel=1e-14, abs=1e-300)
        assert 0 < n_inf < 100

    def test_kl_infinite_even_at_zero_weight(self, uniform_policy):
        off_support = TabularPolicy(np.array([[0.5, 0.5], [1.0, 0.0]]))
        weights = StateDistribution(np.array([1.0, 0.0]))
        assert policy_distance(uniform_policy, off_support, weights).expected_kl == np.inf

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_tv_symmetric_and_pinsker(self, seed):
        rng = np.random.default_rng(seed)
        n_states, n_actions = 3, 4
        p1 = random_policy(rng, n_states, n_actions)
        p2 = random_policy(rng, n_states, n_actions)
        w = StateDistribution(rng.dirichlet(np.ones(n_states)))
        fwd = policy_distance(p1, p2, w)
        rev = policy_distance(p2, p1, w)
        np.testing.assert_allclose(fwd.tv, rev.tv, atol=1e-12)
        assert fwd.expected_tv == pytest.approx(rev.expected_tv, abs=1e-12)
        # Pinsker at the worst state: max_s tv_s <= sqrt(max_s kl_s / 2) fails in
        # general since the maximizing states can differ, so check in expectation
        # against the worst-state kl which dominates the expected kl.
        per_state_kl = np.sum(
            np.where(p1.probs > 0, p1.probs * (np.log(p1.probs) - np.log(p2.probs)), 0.0),
            axis=1,
        )
        assert fwd.expected_tv <= np.sqrt(max(per_state_kl.max(), 0.0) / 2.0) + 1e-12


class TestFileRoundTrip:
    def test_mdp_round_trip_is_exact(self, tmp_path):
        rng = np.random.default_rng(5)
        mdp = random_ergodic_mdp(rng, 5, 3, reward_range=(-1.0, 1.0))
        path = tmp_path / "mdp.json"
        write_mdp(mdp, path)
        back = read_mdp(path)
        assert np.array_equal(back.transition, mdp.transition)
        assert np.array_equal(back.reward, mdp.reward)
        assert np.array_equal(back.init_dist, mdp.init_dist)

    def test_policy_round_trip_is_exact(self, tmp_path):
        pi = random_policy(np.random.default_rng(6), 4, 3)
        path = tmp_path / "policy.json"
        write_policy(pi, path)
        back = read_policy(path)
        assert np.array_equal(back.probs, pi.probs)

    def test_missing_key_named_in_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n_states": 2, "n_actions": 2, "reward": [[0,0],[1,1]], "init_dist": [0.5, 0.5]}')
        with pytest.raises(MdpFileError, match="transition"):
            read_mdp(path)

    def test_shape_mismatch_named_in_error(self, tmp_path, two_state):
        path = tmp_path / "mdp.json"
        write_mdp(two_state, path)
        import json

        doc = json.loads(path.read_text())
        doc["reward"] = [[0.0], [1.0]]
        path.write_text(json.dumps(doc))
        with pytest.raises(MdpFileError, match="reward"):
            read_mdp(path)

    def test_not_json_raises_file_error(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json at all")
        with pytest.raises(MdpFileError):
            read_mdp(path)

    def test_policy_file_without_probs_key(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text('{"weights": [[1.0]]}')
        with pytest.raises(MdpFileError, match="probs"):
            read_policy(path)


class TestSampleIndex:
    def test_matches_searchsorted_on_list_rows(self):
        # reference: the array search over the same cumulative rows, wherever
        # it lands inside the row
        rng = np.random.default_rng(60)
        probs = rng.dirichlet(np.ones(5), size=300)
        probs[::2, 4] = 0.0
        probs[::3, 0] = 0.0
        probs /= probs.sum(axis=1, keepdims=True)
        cum = np.cumsum(probs, axis=1)
        rows = cum.tolist()
        draws = [0.0, float(np.nextafter(1.0, 0.0)), *rng.random(100_000).tolist()]
        for k, u in enumerate(draws):
            r = k % 300
            ref = int(np.searchsorted(cum[r], u, side="right"))
            got = sample_index(rows[r], u)
            if ref < 5:
                assert got == ref
            assert probs[r, got] > 0.0

    def test_draw_above_last_cumulative_skips_trailing_zero(self):
        cum = np.cumsum(trailing_zero_row()).tolist()
        top = TopRng().random()
        assert cum[2] == cum[3] == top
        assert sample_index(cum, top) == 2
