"""Command line interface.

Four subcommands: ``analyze`` evaluates one policy on one MDP exactly and
writes a JSON report; ``verify`` sweeps random MDPs and policy pairs,
checks every bound, and writes a CSV; ``train`` runs the average-reward
algorithm or the discounted baseline on a named environment; ``ablate-nu``
runs the value-drift experiment over a grid of constraint coefficients.

Exit codes: 0 on success, 1 on input validation failures and on a
non-finite loss, 2 when ``verify`` finds a bound violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

import numpy as np

from apo.analysis import analysis_residuals, analyze_policy
from apo.bounds import BoundReport, check_distribution_identity, check_performance_bound
from apo.envs import TabularEnv, make_env
from apo.mdp import (
    MAX_STATES,
    MdpFileError,
    NotErgodicError,
    TabularPolicy,
    is_ergodic,
    random_ergodic_mdp,
    random_policy,
    read_mdp,
    read_policy,
    validate_mdp,
)
from apo.nn import save_checkpoint
from apo.training import (
    ENV_STREAM,
    NonFiniteLossError,
    TrainConfig,
    TrainerState,
    train,
    value_drift_experiment,
)

# Every `BoundReport` field but the difference-formula residual, which the
# summary line reports as a maximum instead.
REPORT_COLUMNS = [f.name for f in dataclasses.fields(BoundReport) if f.name != "pdf_residual"]
VERIFY_COLUMNS = ["mdp_seed", "policy_seed_old", "policy_seed_new", *REPORT_COLUMNS,
                  "lemma3_residual"]


def _fail(kind: str, detail) -> int:
    print(json.dumps({"error": kind, "detail": detail}), file=sys.stderr)
    return 1


def cmd_analyze(args) -> int:
    mdp = read_mdp(args.mdp)
    check = validate_mdp(mdp)
    if not check.ok:
        return _fail(
            "invalid-mdp",
            [
                {"kind": v.kind, "where": list(v.where), "magnitude": v.magnitude}
                for v in check.violations
            ],
        )
    policy = read_policy(args.policy)
    ok, unreachable = is_ergodic(mdp, policy)
    if not ok:
        return _fail("not-ergodic", {"unreachable_pair": list(unreachable)})
    analysis = analyze_policy(mdp, policy, args.gamma)
    report = {
        "gamma": analysis.gamma,
        "eta_avg": analysis.eta_avg,
        "eta_disc": analysis.eta_disc,
        "d_stat": analysis.d_stat.probs.tolist(),
        "d_disc": analysis.d_disc.probs.tolist(),
        "v": analysis.v.tolist(),
        "q": analysis.q.tolist(),
        "adv": analysis.adv.tolist(),
        "z": analysis.z.tolist(),
        "m": analysis.m.tolist(),
        "kemeny": analysis.kemeny,
        # The raw Poisson solution sits this far above the zero-mean values
        # (a constant shift of eta_avg in every entry).
        "value_shift_from_raw_poisson": analysis.eta_avg,
        "residuals": analysis_residuals(mdp, policy, analysis),
    }
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"analyze: wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    if not (2 <= args.states <= MAX_STATES):
        raise ValueError(f"--states must be in [2, {MAX_STATES}]")
    if args.actions < 2:
        raise ValueError("--actions must be at least 2")
    gammas = [float(g) for g in args.gammas.split(",")]
    rows = []
    violations = 0
    max_pdf = 0.0
    max_lemma3 = 0.0
    for i in range(args.seeds):
        mdp_rng = np.random.default_rng(i)
        n_states = int(mdp_rng.integers(2, args.states + 1))
        n_actions = int(mdp_rng.integers(2, args.actions + 1))
        mdp = random_ergodic_mdp(mdp_rng, n_states, n_actions)
        seed_old, seed_new = 10_000 + i, 20_000 + i
        pi_old = random_policy(np.random.default_rng(seed_old), n_states, n_actions)
        pi_new = random_policy(np.random.default_rng(seed_new), n_states, n_actions)
        for gamma in gammas:
            report = check_performance_bound(mdp, pi_old, pi_new, gamma)
            lemma3 = check_distribution_identity(mdp, pi_old, pi_new, gamma)
            holds = (
                report.holds_lower
                and report.holds_upper
                and report.holds_prop1
                and report.holds_prop2
            )
            if not holds:
                violations += 1
            max_pdf = max(max_pdf, report.pdf_residual)
            max_lemma3 = max(max_lemma3, lemma3)
            rows.append([i, seed_old, seed_new,
                         *(repr(getattr(report, c)) for c in REPORT_COLUMNS), repr(lemma3)])
    lines = [",".join(VERIFY_COLUMNS)]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(
        f"verify: {len(rows)} checks, {violations} violations, "
        f"max difference-formula residual {max_pdf:.3e}, "
        f"max occupancy-identity residual {max_lemma3:.3e}"
    )
    return 2 if violations else 0


def _load_config(args) -> TrainConfig:
    payload = {}
    if args.config:
        try:
            payload = json.loads(Path(args.config).read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"{args.config}: not valid JSON ({exc})") from exc
    config = TrainConfig.from_dict(payload)
    if args.algo is not None:
        config.algo = args.algo
    if args.seed is not None:
        config.seed = args.seed
    if getattr(args, "gamma", None) is not None:
        config.gamma = args.gamma
    config.validate()
    return config


def _save_state(path: Path, state: TrainerState) -> None:
    save_checkpoint(
        path,
        {"policy": state.policy, "value": state.value},
        {"policy": state.policy_adam, "value": state.value_adam},
    )


def cmd_train(args) -> int:
    config = _load_config(args)
    env_stream = np.random.SeedSequence(config.seed).spawn(4)[ENV_STREAM]
    env = make_env(args.env, np.random.default_rng(env_stream))
    out = Path(args.out)
    try:
        log = train(env, config)
    except NonFiniteLossError as exc:
        dump = out.with_suffix(".dump.npz")
        _save_state(dump, exc.state)
        return _fail("non-finite-loss", {"message": str(exc), "state_dump": str(dump)})
    log.write_csv(out)
    ckpt = out.with_suffix(".ckpt.npz")
    _save_state(ckpt, log.state)
    final_eval = log.rows[-1].eval_avg_reward
    print(f"train: {config.algo} on {args.env}, final eval {final_eval!r}; wrote {out} and {ckpt}")
    return 0


def cmd_ablate_nu(args) -> int:
    nus = [float(x) for x in args.nus.split(",")]
    seeds = [int(x) for x in args.seeds.split(",")]
    env_probe = make_env(args.env, np.random.default_rng(0))
    if not isinstance(env_probe, TabularEnv):
        raise ValueError("ablate-nu needs a tabular environment")
    n_actions = env_probe.n_actions
    n_states = env_probe.obs_dim
    behavior = TabularPolicy(np.full((n_states, n_actions), 1.0 / n_actions))
    grid = [(nu, seed) for nu in nus for seed in seeds]
    # every pair is checked before the first run, so a bad one discards no work
    for nu, seed in grid:
        TrainConfig(nu=nu, iterations=args.iterations, seed=seed).validate()
    rows = []
    for nu, seed in grid:
        env_stream = np.random.SeedSequence(seed).spawn(4)[ENV_STREAM]
        env = make_env(args.env, np.random.default_rng(env_stream))
        result = value_drift_experiment(env, behavior, nu, iterations=args.iterations, seed=seed)
        tail = max(1, args.iterations // 4)
        rows.append(
            [repr(nu), seed, repr(result.final_eval_reward), repr(result.mean_abs_b(tail))]
        )
        print(f"ablate-nu: nu={nu} seed={seed} mean|b| over last quarter = {rows[-1][3]}")
    lines = ["nu,seed,final_eval_reward,mean_abs_b_last_quarter"]
    lines.extend(",".join(str(x) for x in row) for row in rows)
    Path(args.out).write_text("\n".join(lines) + "\n")
    print(f"ablate-nu: wrote {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apo",
        description="Exact average-reward MDP analysis, bound verification, and training.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="evaluate one policy on one MDP exactly")
    p.add_argument("--mdp", required=True, help="MDP JSON file")
    p.add_argument("--policy", required=True, help="policy JSON file")
    p.add_argument("--gamma", type=float, default=1.0, help="discount in [0, 1]")
    p.add_argument("--out", required=True, help="JSON report path")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("verify", help="sweep random MDPs and check every bound")
    p.add_argument("--seeds", type=int, default=100, help="number of random MDPs")
    p.add_argument("--states", type=int, default=8, help="max states per MDP (min 2)")
    p.add_argument("--actions", type=int, default=4, help="max actions per MDP (min 2)")
    p.add_argument(
        "--gammas", default="0.9,0.99,0.999,1.0", help="comma-separated discounts"
    )
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("train", help="train on a continuing environment")
    p.add_argument("--env", required=True, help="twostate | twoloop | pendulum | file:<path>")
    p.add_argument("--algo", choices=("apo", "ppo"), default=None)
    p.add_argument("--config", default=None, help="JSON file of TrainConfig fields")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--gamma", type=float, default=None, help="baseline discount override")
    p.add_argument("--out", required=True, help="log CSV path (checkpoint written next to it)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("ablate-nu", help="value-drift experiment over a nu grid")
    p.add_argument("--env", default="twostate")
    p.add_argument("--nus", default="0,0.03,0.1,0.3,1.0", help="comma-separated grid")
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p.add_argument("--iterations", type=int, default=500)
    p.add_argument("--out", required=True, help="CSV path")
    p.set_defaults(func=cmd_ablate_nu)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MdpFileError as exc:
        return _fail("file-error", str(exc))
    except NotErgodicError as exc:
        return _fail("not-ergodic", str(exc))
    except ValueError as exc:
        return _fail("invalid-input", str(exc))
    except NonFiniteLossError as exc:
        return _fail("non-finite-loss", {"message": str(exc)})


if __name__ == "__main__":
    sys.exit(main())
