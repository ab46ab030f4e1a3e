"""The shared chain core: solve counts, views against bundled reports, guards."""

import sys

import numpy as np
import pytest

import apo.mdp
from apo.analysis import (
    InducedChain,
    NumericalConditioningError,
    average_reward,
    discounted_return,
    discounted_state_distribution,
    fundamental_matrix,
    kemeny_constant,
    mean_first_passage,
    stationary_distribution,
    value_functions,
)
from apo.bounds import (
    check_distribution_identity,
    check_performance_bound,
    epsilon_gamma,
    surrogate_objective,
    xi_gamma,
)
from apo.cli import analysis_report, main
from apo.envs import make_two_state, switch_policy
from apo.mdp import (
    Mdp,
    NotErgodicError,
    TabularPolicy,
    random_ergodic_mdp,
    random_policy,
    write_mdp,
    write_policy,
)

VIEW_GAMMAS = (0.0, 0.5, 0.9, 1.0)


def random_triples(n, seed):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n):
        s = int(rng.integers(2, 13))
        a = int(rng.integers(2, 5))
        mdp = random_ergodic_mdp(rng, s, a, reward_range=(-1.0, 1.0))
        out.append((mdp, random_policy(rng, s, a), random_policy(rng, s, a)))
    return out


@pytest.fixture
def counts(monkeypatch):
    """Counts `numpy.linalg.solve` calls and `induced_transition` calls at
    every name that binds it inside the package."""
    tally = {"solve": 0, "build": 0}
    solve, build = np.linalg.solve, apo.mdp.induced_transition

    def counting_solve(*args, **kwargs):
        tally["solve"] += 1
        return solve(*args, **kwargs)

    def counting_build(*args, **kwargs):
        tally["build"] += 1
        return build(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "solve", counting_solve)
    for name, module in list(sys.modules.items()):
        if name == "apo" or name.startswith("apo."):
            for key, value in list(vars(module).items()):
                if value is build:
                    monkeypatch.setattr(module, key, counting_build)
    return tally


# (solves at gamma = 1, solves at gamma < 1, induced_transition calls)
LIMITS = {
    "check_performance_bound": (4, 6, 2),
    "check_distribution_identity": (3, 4, 2),
    # `apo analyze`: one policy's full report, read from one chain
    "analyze_policy": (4, 4, 1),
}


class TestSolveCounts:
    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("name", sorted(LIMITS))
    def test_one_solve_per_quantity(self, counts, name, gamma):
        mdp, pi_old, pi_new = random_triples(1, seed=3)[0]
        calls = {
            "check_performance_bound": lambda: check_performance_bound(mdp, pi_old, pi_new, gamma),
            "check_distribution_identity": lambda: check_distribution_identity(
                mdp, pi_old, pi_new, gamma
            ),
            "analyze_policy": lambda: analysis_report(InducedChain(mdp, pi_old), gamma),
        }
        solves_one, solves_below, builds = LIMITS[name]
        calls[name]()
        assert counts["solve"] <= (solves_one if gamma == 1.0 else solves_below)
        assert counts["build"] <= builds

    def test_apo_analyze_builds_one_chain(self, counts, tmp_path):
        # the reachability check reads the transition matrix of the chain
        # that the report is solved on
        mdp, pi, _ = random_triples(1, seed=5)[0]
        write_mdp(mdp, tmp_path / "mdp.json")
        write_policy(pi, tmp_path / "pi.json")
        assert main(["analyze", "--mdp", str(tmp_path / "mdp.json"), "--policy",
                     str(tmp_path / "pi.json"), "--out", str(tmp_path / "r.json")]) == 0
        assert counts["build"] == 1

    def test_apo_analyze_not_ergodic_payload(self, counts, tmp_path, capsys):
        write_mdp(make_two_state(), tmp_path / "mdp.json")
        write_policy(switch_policy(0.0, 0.0), tmp_path / "stay.json")
        assert main(["analyze", "--mdp", str(tmp_path / "mdp.json"), "--policy",
                     str(tmp_path / "stay.json"), "--out", str(tmp_path / "r.json")]) == 1
        assert capsys.readouterr().err == (
            '{"error": "not-ergodic", "detail": {"unreachable_pair": [0, 1]}}\n')
        assert counts["build"] == 1 and counts["solve"] == 0

    def test_chain_reuses_every_quantity(self, counts):
        mdp, pi, _ = random_triples(1, seed=4)[0]
        chain = InducedChain(mdp, pi)
        first = (chain.stationary, chain.occupancy(0.9), chain.fundamental(0.9),
                 chain.values(0.9), chain.passage, chain.kemeny)
        solved = counts["solve"]
        again = (chain.stationary, chain.occupancy(0.9), chain.fundamental(0.9),
                 chain.values(0.9), chain.passage, chain.kemeny)
        assert counts["solve"] == solved == 4
        assert counts["build"] == 1
        assert all(a is b for a, b in zip(first, again))


class TestViews:
    def test_bound_report_fields_equal_their_views(self):
        for mdp, pi_old, pi_new in random_triples(10, seed=11):
            for g in VIEW_GAMMAS:
                report = check_performance_bound(mdp, pi_old, pi_new, g)
                kem = kemeny_constant(mdp, pi_new)
                assert report.surrogate == surrogate_objective(mdp, pi_old, pi_new, g)
                assert report.eps_gamma == epsilon_gamma(mdp, pi_old, pi_new, g)
                assert report.kemeny_new == kem
                assert report.xi_gamma == xi_gamma(g, kem)
                assert report.actual_diff == (
                    discounted_return(mdp, pi_new, g) - discounted_return(mdp, pi_old, g)
                )

    def test_analyze_report_equals_its_views(self):
        for mdp, pi, _ in random_triples(10, seed=12):
            for g in VIEW_GAMMAS:
                report = analysis_report(InducedChain(mdp, pi), g)
                v, q, adv = value_functions(mdp, pi, g)
                assert report["gamma"] == g
                assert report["eta_avg"] == average_reward(mdp, pi)
                assert report["value_shift_from_raw_poisson"] == report["eta_avg"]
                assert report["eta_disc"] == discounted_return(mdp, pi, g)
                assert report["d_stat"] == stationary_distribution(mdp, pi).probs.tolist()
                assert report["d_disc"] == discounted_state_distribution(mdp, pi, g).probs.tolist()
                assert report["v"] == v.tolist()
                assert report["q"] == q.tolist()
                assert report["adv"] == adv.tolist()
                assert report["z"] == fundamental_matrix(mdp, pi, g).tolist()
                assert report["m"] == mean_first_passage(mdp, pi).tolist()
                assert report["kemeny"] == kemeny_constant(mdp, pi)

    def test_passage_equals_the_dense_product_form(self):
        # broadcasting must give the bits of (I - Z + E Z_dg) D with dense E and D
        rng = np.random.default_rng(13)
        for _ in range(100):
            s, a = int(rng.integers(2, 65)), int(rng.integers(2, 5))
            chain = InducedChain(random_ergodic_mdp(rng, s, a), random_policy(rng, s, a))
            z, d = chain.fundamental(1.0), chain.stationary.probs
            dense = (np.eye(s) - z + np.ones((s, s)) @ np.diag(np.diag(z))) @ np.diag(1.0 / d)
            np.testing.assert_array_equal(chain.passage, dense)


class TestGuardsThroughCore:
    @pytest.fixture
    def stay(self):
        # stay in both states: two recurrent classes
        return TabularPolicy(np.array([[1.0, 0.0], [1.0, 0.0]]))

    @pytest.mark.parametrize("gamma", [0.9, 1.0])
    def test_multichain_raises(self, two_state, uniform_policy, stay, gamma):
        with pytest.raises(NotErgodicError):
            check_performance_bound(two_state, stay, uniform_policy, gamma)
        with pytest.raises(NotErgodicError):
            check_performance_bound(two_state, uniform_policy, stay, gamma)
        with pytest.raises(NotErgodicError):
            value_functions(two_state, stay, gamma)
        with pytest.raises(NotErgodicError):
            kemeny_constant(two_state, stay)

    @pytest.fixture
    def nan_mdp(self, two_state):
        # `Mdp` checks shapes only; a NaN row is `validate_mdp`'s to report
        t = two_state.transition.copy()
        t[0, 1] = [np.nan, 1.0]
        return Mdp(transition=t, reward=two_state.reward, init_dist=two_state.init_dist)

    def test_nan_balance_residual_raises(self, nan_mdp, uniform_policy):
        with pytest.raises(NotErgodicError, match="nan"):
            InducedChain(nan_mdp, uniform_policy).stationary

    def test_nan_fundamental_residual_raises(self, two_state, uniform_policy, monkeypatch):
        chain = InducedChain(two_state, uniform_policy)
        chain.stationary  # solved before the solver breaks
        solve = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(solve(a, b), np.nan))
        with pytest.raises(NumericalConditioningError, match="nan"):
            chain.fundamental(0.9)
