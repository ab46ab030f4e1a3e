"""Acceptance suite.

One test per numbered requirement, each ending in a single printed
``ACCEPTANCE NN PASS/FAIL`` line followed by the assertion.  The random
sweep, the environment separation runs, and the drift grid are shared
module-scoped fixtures because they are the expensive parts.
"""

import math
import time
from dataclasses import dataclass, field

import numpy as np
import pytest

from apo.analysis import InducedChain, analysis_residuals
from apo.bounds import (
    check_distribution_identity,
    check_matrix_identities,
    check_performance_bound,
    xi_gamma,
    xi_profile,
)
from apo.envs import TabularEnv, make_env, make_two_state, switch_policy
from apo.mdp import TabularPolicy, random_ergodic_mdp, random_policy
from apo.nn import init_mlp, value_forward
from apo.training import (
    ENV_STREAM,
    TrainConfig,
    collect_rollout,
    compute_residuals_and_advantages,
    policy_loss,
    train,
    value_drift_experiment,
    value_loss,
)

from tests.conftest import finite_difference_max_rel_err

SWEEP_GAMMAS = (0.9, 0.99, 0.999, 1.0)
KAPPA_GRID = (1.2, 1.5, 2.0, 5.0, 20.0)


def _report(num: int, ok: bool, detail: str) -> None:
    tag = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {tag}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@dataclass
class SweepData:
    elapsed: float = 0.0
    pdf_residuals: list = field(default_factory=list)
    reports: list = field(default_factory=list)
    occupancy_residuals: list = field(default_factory=list)
    residual_dicts: list = field(default_factory=list)
    matrix_reports: list = field(default_factory=list)

    def worst_residual(self, key: str) -> float:
        return max(abs(d[key]) for d in self.residual_dicts)


@pytest.fixture(scope="module")
def sweep():
    """100 random ergodic MDPs, one random policy pair each, four discounts."""
    data = SweepData()
    t0 = time.perf_counter()
    for i in range(100):
        mdp_rng = np.random.default_rng(i)
        n_states = int(mdp_rng.integers(2, 9))
        n_actions = int(mdp_rng.integers(2, 5))
        mdp = random_ergodic_mdp(mdp_rng, n_states, n_actions)
        pi_old = random_policy(np.random.default_rng(10_000 + i), n_states, n_actions)
        pi_new = random_policy(np.random.default_rng(20_000 + i), n_states, n_actions)
        for gamma in SWEEP_GAMMAS:
            report = check_performance_bound(mdp, pi_old, pi_new, gamma)
            data.reports.append(report)
            data.pdf_residuals.append(report.pdf_residual)
            data.occupancy_residuals.append(check_distribution_identity(mdp, pi_old, pi_new, gamma))
            data.residual_dicts.append(analysis_residuals(InducedChain(mdp, pi_new), gamma))
            data.matrix_reports.append(check_matrix_identities(mdp, pi_new, gamma))
    data.elapsed = time.perf_counter() - t0
    return data


@pytest.fixture(scope="module")
def separation_runs():
    """Fifteen short trainings on the two-loop environment.

    Three arms (average-reward, discounted at 0.9, discounted at 0.99), five
    seeds each, 97 iterations of 2048 steps = 198,656 environment steps,
    evaluations every 10 iterations on an independently spawned env copy.
    """
    arms = {
        "apo": ("apo", 0.99),
        "ppo09": ("ppo", 0.9),
        "ppo99": ("ppo", 0.99),
    }
    evals = {name: {} for name in arms}
    t0 = time.perf_counter()
    for name, (algo, gamma) in arms.items():
        for seed in range(5):
            config = TrainConfig(
                algo=algo,
                gamma=gamma,
                iterations=97,
                rollout_len=2048,
                eval_every=10,
                eval_horizon=400,
                eval_episodes=4,
                seed=seed,
            )
            stream = np.random.SeedSequence(seed).spawn(4)[ENV_STREAM]
            env = make_env("twoloop", np.random.default_rng(stream))
            log = train(env, config)
            evals[name][seed] = [
                row.eval_avg_reward
                for row in log.rows
                if not math.isnan(row.eval_avg_reward)
            ]
    return evals, time.perf_counter() - t0


@pytest.fixture(scope="module")
def drift_grid():
    """Mean |b| over the last 100 of 500 critic-only iterations, per (nu, seed)."""
    nus = (0.0, 0.03, 0.1, 0.3, 1.0)
    behavior = TabularPolicy(np.full((2, 2), 0.5))
    out = {}
    for nu in nus:
        for seed in range(5):
            stream = np.random.SeedSequence(seed).spawn(4)[ENV_STREAM]
            env = make_env("twostate", np.random.default_rng(stream))
            result = value_drift_experiment(env, behavior, nu, iterations=500, seed=seed)
            out[(nu, seed)] = result.mean_abs_b(100)
    return nus, out


class TestAcceptance:
    def test_criterion_01_performance_difference_formula(self, sweep):
        worst = max(sweep.pdf_residuals)
        ok = worst <= 1e-9 and sweep.elapsed < 60.0
        _report(
            1,
            ok,
            f"max |performance diff - expected advantage| = {worst:.3e} "
            f"over 400 checks in {sweep.elapsed:.1f}s (need <= 1e-9, < 60s)",
        )

    def test_criterion_02_bound_inequalities(self, sweep, two_state, uniform_policy):
        violations = sum(
            not (r.holds_lower and r.holds_upper and r.holds_prop1 and r.holds_prop2)
            for r in sweep.reports
        )
        hand = check_performance_bound(two_state, uniform_policy, switch_policy(0.8, 0.2), 1.0)
        hand_ok = (
            abs(hand.actual_diff - 0.3) <= 1e-12
            and abs(hand.lower - 0.12) <= 1e-10
            and abs(hand.upper - 0.48) <= 1e-10
            and hand.lower <= hand.actual_diff <= hand.upper
        )
        ok = violations == 0 and hand_ok
        _report(
            2,
            ok,
            f"{violations} inequality violations over {len(sweep.reports)} reports; "
            f"hand-built two-state case gives diff {hand.actual_diff:.3f} "
            f"in [{hand.lower:.3f}, {hand.upper:.3f}]",
        )

    def test_criterion_03_occupancy_and_matrix_identities(self, sweep):
        worst_occupancy = max(sweep.occupancy_residuals)
        worst_z = max(
            sweep.worst_residual(k) for k in ("z_row_sums", "z_stationary", "z_resolvent")
        )
        worst_passage = sweep.worst_residual("passage_bellman")
        worst_row_sum = max(m.row_sum_residual for m in sweep.matrix_reports)
        worst_entry = min(m.min_entry for m in sweep.matrix_reports)
        applicable = [m for m in sweep.matrix_reports if m.resolvent_difference_applicable]
        worst_resolvent_diff = max(m.resolvent_difference_residual for m in applicable)
        ok = (
            worst_occupancy <= 1e-8
            and worst_z <= 1e-9
            and worst_passage <= 1e-9
            and worst_row_sum <= 1e-12
            and worst_entry >= -1e-12
            and worst_resolvent_diff <= 1e-8
        )
        _report(
            3,
            ok,
            f"occupancy-shift residual {worst_occupancy:.2e} (<=1e-8), "
            f"resolvent properties {worst_z:.2e} (<=1e-9), "
            f"passage Bellman {worst_passage:.2e} (<=1e-9), "
            f"normalized passage matrix stochastic to {worst_row_sum:.2e} "
            f"with min entry {worst_entry:.2e} (1e-12), "
            f"resolvent-difference identity {worst_resolvent_diff:.2e} on "
            f"{len(applicable)} applicable cases (<=1e-8)",
        )

    def test_criterion_04_kemeny_invariants(self, sweep, two_state):
        worst_spread = sweep.worst_residual("kemeny_row_spread")
        worst_trace = sweep.worst_residual("kemeny_trace_gap")
        worst_closed = 0.0
        for p, q in ((0.1, 0.3), (0.25, 0.5), (0.5, 0.5), (0.8, 0.2), (1.0, 1.0)):
            kemeny = InducedChain(two_state, switch_policy(p, q)).kemeny
            worst_closed = max(worst_closed, abs(kemeny - (1.0 + 1.0 / (p + q))))
        ok = worst_spread <= 1e-9 and worst_trace <= 1e-9 and worst_closed <= 1e-10
        _report(
            4,
            ok,
            f"row-independence spread {worst_spread:.2e}, trace gap {worst_trace:.2e} "
            f"(<=1e-9), two-state closed form off by {worst_closed:.2e} (<=1e-10)",
        )

    def test_criterion_05_coefficient_profile(self, sweep):
        grid = np.linspace(0.0, 1.0, 1001)
        worst_limit = max(abs(xi_gamma(1.0, k) - (k - 1.0)) for k in KAPPA_GRID)
        worst_excess = -np.inf
        worst_arg = 0.0
        for k in KAPPA_GRID:
            prof = xi_profile(k, grid)
            peak = prof[:, 1].max()
            argmax = prof[np.argmax(prof[:, 1]), 0]
            worst_excess = max(worst_excess, peak - 2.0 * (k - 1.0))
            worst_arg = max(worst_arg, abs(argmax - (1.0 - 1.0 / (2.0 * k - 1.0))))
        ok = worst_limit <= 1e-12 and worst_excess <= 1e-12 and worst_arg <= 1e-3 + 1e-12
        _report(
            5,
            ok,
            f"undiscounted value matches mixing constant minus one to {worst_limit:.2e} "
            f"(<=1e-12); grid peak exceeds twice that by {worst_excess:.2e} (<=0); "
            f"grid argmax off the closed form by {worst_arg:.2e} (<= one step)",
        )

    def test_criterion_06_zero_mean_values(self, sweep):
        worst = sweep.worst_residual("value_zero_mean")
        ok = worst <= 1e-9
        _report(
            6,
            ok,
            f"max |stationary expectation of centered values| = {worst:.2e} "
            f"over 400 policy/discount pairs incl. undiscounted (<=1e-9)",
        )

    def test_criterion_07_gradient_checks(self):
        rng = np.random.default_rng(1234)
        hiddens = ((), (5,), (6, 4))
        checks = 0
        worst = 0.0
        for env_name in ("twostate", "twoloop", "pendulum"):
            for trial in range(4):
                env = make_env(env_name, np.random.default_rng(rng.integers(2**31)))
                obs_dim = env.obs_dim
                hidden = hiddens[int(rng.integers(len(hiddens)))]
                if isinstance(env, TabularEnv):
                    policy = init_mlp(
                        np.random.default_rng(rng.integers(2**31)),
                        obs_dim, env.n_actions, "categorical", hidden,
                    )
                else:
                    policy = init_mlp(
                        np.random.default_rng(rng.integers(2**31)),
                        obs_dim, env.action_dim, "gaussian", hidden,
                    )
                value = init_mlp(
                    np.random.default_rng(rng.integers(2**31)),
                    obs_dim, 1, "value", hidden,
                )
                env.reset()
                batch = collect_rollout(
                    env, policy, value, 16,
                    np.random.default_rng(rng.integers(2**31)),
                )
                eta = float(rng.uniform(-0.5, 0.5))
                compute_residuals_and_advantages(batch, eta, float(rng.uniform(0, 1)))
                b = float(rng.uniform(-0.5, 0.5))
                nu = float(rng.uniform(0, 1))
                worst = max(worst, finite_difference_max_rel_err(
                    lambda: value_loss(value, batch, eta, b, nu), value))
                checks += 1
                worst = max(worst, finite_difference_max_rel_err(
                    lambda: policy_loss(policy, batch, 0.2), policy))
                checks += 1
        ok = checks >= 20 and worst <= 1e-4
        _report(
            7,
            ok,
            f"max finite-difference relative error {worst:.2e} over {checks} "
            f"loss configurations (need <=1e-4 on >=20)",
        )

    @pytest.mark.slow
    def test_criterion_08_two_loop_separation(self, separation_runs):
        evals, elapsed = separation_runs
        apo_reach = sum(max(evals["apo"][s]) >= 0.24 for s in range(5))
        ppo09_stay = sum(max(evals["ppo09"][s]) <= 0.23 for s in range(5))
        ppo99_reach = sum(max(evals["ppo99"][s]) >= 0.24 for s in range(5))
        ok = (
            apo_reach >= 4
            and ppo09_stay >= 4
            and ppo99_reach >= 4
            and elapsed < 600.0
        )
        _report(
            8,
            ok,
            f"average-reward path reached >=0.24 on {apo_reach}/5 seeds; "
            f"discounted 0.9 stayed <=0.23 on {ppo09_stay}/5; "
            f"discounted 0.99 reached >=0.24 on {ppo99_reach}/5; "
            f"198,656 train steps per run, {elapsed:.0f}s total (<600s)",
        )

    @pytest.mark.slow
    def test_criterion_09_drift_ablation(self, drift_grid):
        nus, out = drift_grid
        wins = sum(out[(1.0, s)] < out[(0.0, s)] for s in range(5))
        seed_means = {nu: float(np.mean([out[(nu, s)] for s in range(5)])) for nu in nus}
        max_nu = max(seed_means, key=seed_means.get)
        ok = wins >= 4 and max_nu == 0.0
        _report(
            9,
            ok,
            f"constraint-on beats constraint-off on {wins}/5 seeds "
            f"(mean drift {seed_means[1.0]:.3f} vs {seed_means[0.0]:.3f}); "
            f"largest drift on the grid at nu={max_nu}",
        )

    def test_criterion_10_perfect_critic_fixed_point(self):
        env = TabularEnv(make_two_state(), np.random.default_rng(0))
        env.state = 0
        policy = init_mlp(np.random.default_rng(0), 2, 2, "categorical", ())
        policy.tensors["w0"][:] = [[0.0, 40.0], [0.0, 40.0]]
        policy.tensors["b0"][:] = 0.0
        value = init_mlp(np.random.default_rng(0), 2, 1, "value", ())
        value.tensors["w0"][:] = [[-0.25], [0.25]]
        value.tensors["b0"][:] = 0.0

        batch = collect_rollout(env, policy, value, 64,
                                np.random.default_rng(1))
        compute_residuals_and_advantages(batch, eta_hat=0.5, lam=0.9)
        b = float(batch.value.mean())

        worst_delta = float(np.abs(batch.td_residual).max())
        worst_adv = float(np.abs(batch.advantage).max())
        _, vgrads = value_loss(value, batch, 0.5, b, 0.3)
        worst_vgrad = float(np.abs(vgrads).max())
        _, pgrads = policy_loss(policy, batch, 0.2)
        worst_pgrad = float(np.abs(pgrads).max())

        ok = max(worst_delta, worst_adv, worst_vgrad, worst_pgrad, abs(b)) <= 1e-10
        _report(
            10,
            ok,
            f"residuals {worst_delta:.2e}, advantages {worst_adv:.2e}, "
            f"critic gradient {worst_vgrad:.2e}, policy gradient {worst_pgrad:.2e}, "
            f"batch mean value {b:.2e} (all <=1e-10)",
        )
