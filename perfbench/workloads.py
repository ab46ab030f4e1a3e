"""The four benchmark workloads: their inputs, one round of work, and checks.

A round is a fixed amount of work whose inputs come from the workload seed
and the round index alone.  The training workloads drive the program
through ``apo.cli.main``, the entry point of the ``apo`` command, and read
back the logs it writes.  ``verify-sweep`` runs the body of ``apo verify``
row by row (``apo verify`` numbers its MDPs from zero and so cannot take a
seed) and first proves, against a live ``apo verify`` run, that those rows
are the ones the command writes.

Every check here is computed apart from the program: gains derived by hand
from the MDPs, ranges that follow from the reward functions, and the
benchmark's own occupancy solves.  None compares with a stored output.
"""

from __future__ import annotations

import contextlib
import csv
import inspect
import io
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from apo import cli, training
from apo.mdp import MAX_STATES

# Criterion 08's evaluation cadence; every other field keeps its
# TrainConfig default (rollout 2048, 10 epochs, minibatch 256, 64-64 tanh).
EVAL_CADENCE = {"eval_every": 10, "eval_horizon": 400, "eval_episodes": 4}
WARM_UP_CONFIG = {
    "iterations": 2, "rollout_len": 256, "minibatch": 256, "epochs": 1,
    "eval_every": 1, "eval_horizon": 10, "eval_episodes": 1,
}

# Two-loop gains, by hand from `make_two_loop`.  Greedy evaluation follows a
# deterministic policy for h steps: on the long loop it collects exactly h/4
# rewards of 1 (gain 0.25); otherwise it falls into the short self-loop
# within three steps, collecting at most one reward of 1 on the way, so its
# gain lies in [0.22, (1 + 0.22 (h - 1)) / h].  No other value can occur.
LONG_LOOP_GAIN = 0.25
SHORT_LOOP_GAIN = 0.22
GAIN_TOLERANCE = 1e-9

# Pendulum reward is minus (angle^2 + 0.1 vel^2 + 0.001 torque^2) with the
# angle wrapped to (-pi, pi], |vel| <= 8 and |torque| <= 2.
PENDULUM_WORST = -(math.pi**2 + 0.1 * 8.0**2 + 0.001 * 2.0**2)

# Under the uniform policy on `twostate` the next state is a fair coin flip
# whatever the action, so the gain is 0.5.  eta_hat averages 256-step
# batches with rate 0.1, so its spread is about 0.007; 0.05 is seven of it.
TWOSTATE_UNIFORM_GAIN = 0.5
ETA_TOLERANCE = 0.05

MAX_ACTIONS = 8
GAMMAS = (0.9, 0.99, 0.999, 1.0)
# Acceptance tolerances (criteria 01 and 03) for the two residuals a row
# carries, and for the benchmark's own re-solve of the performance change.
PDF_TOLERANCE = 1e-9
OCCUPANCY_TOLERANCE = 1e-8
RESOLVE_TOLERANCE = 1e-9


@dataclass
class Round:
    """What one round did: counts, timings, and what its checks read."""

    index: int
    seed: int  # the workload seed
    program_seed: int
    attempted: int = 0
    failed: int = 0
    work: int = 0  # env steps, or verify rows
    op_seconds: list[float] = field(default_factory=list)  # CPU time
    seconds: float = 0.0  # CPU time
    wall_seconds: float = 0.0
    outputs: dict = field(default_factory=dict)
    errors: list[str] = field(default_factory=list)


def program_seed(seed: int, index: int) -> int:
    """The seed a round hands to the program, from the workload seed."""
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def run_cli(argv: list[str]) -> tuple[int, str]:
    """`apo <argv>` in this process; returns the exit code and its output.
    An exception escaping the program counts as a failed command."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = cli.main(argv)
    except Exception as exc:
        return -1, f"{out.getvalue()}{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def read_rows(path: Path) -> list[dict]:
    lines = [ln for ln in path.read_text().splitlines() if not ln.startswith("#")]
    return list(csv.DictReader(lines))


# ---------------------------------------------------------------------------
# Training workloads


class Training:
    """`apo train` runs, each a fresh training of `iterations`; round `r`
    trains arm `r mod len(arms)`, so a cycle of rounds trains every arm."""

    def __init__(self, env: str, arms: list[tuple[str, str, float | None]], iterations: int):
        self.env = env
        self.arms = arms  # (tag, algo, discount override)
        self.iterations = iterations
        self.cycle = len(arms)

    def _train(self, tag, algo, gamma, config: dict, seed: int, out_dir: Path) -> tuple[int, str, Path]:
        config_path = out_dir / f"{tag}.config.json"
        config_path.write_text(json.dumps(config))
        log = out_dir / f"{tag}.csv"
        argv = ["train", "--env", self.env, "--algo", algo, "--config", str(config_path),
                "--seed", str(seed), "--out", str(log)]
        if gamma is not None:
            argv += ["--gamma", repr(gamma)]
        code, text = run_cli(argv)
        return code, text, log

    def warm_up(self, out_dir: Path) -> None:
        for tag, algo, gamma in self.arms:
            code, text, _ = self._train(f"warmup-{tag}", algo, gamma, WARM_UP_CONFIG, 0, out_dir)
            if code != 0:
                raise RuntimeError(f"warm-up `apo train` failed: {text.strip()}")

    def run_round(self, rnd: Round, out_dir: Path) -> None:
        config = {"iterations": self.iterations, **EVAL_CADENCE}
        rollout_len = training.TrainConfig().rollout_len
        tag, algo, gamma = self.arms[rnd.index % self.cycle]
        name = f"r{rnd.index}-{tag}"
        rnd.attempted += self.iterations
        code, text, log = self._train(name, algo, gamma, config, rnd.program_seed, out_dir)
        if code != 0:
            rnd.failed += self.iterations
            rnd.errors.append(f"{name}: {text.strip()}")
            return
        rnd.work += self.iterations * rollout_len
        rnd.outputs.setdefault("logs", {})[tag] = log

    def check(self, rnd: Round) -> list[str]:
        problems = []
        rollout_len = training.TrainConfig().rollout_len
        for tag, log in rnd.outputs.get("logs", {}).items():
            rows = read_rows(log)
            where = f"round {rnd.index} {tag}"
            if [int(r["iteration"]) for r in rows] != list(range(1, self.iterations + 1)):
                problems.append(f"{where}: log does not hold iterations 1..{self.iterations}")
            for r in rows:
                if int(r["env_steps"]) != int(r["iteration"]) * rollout_len:
                    problems.append(f"{where}: env_steps {r['env_steps']} at iteration {r['iteration']}")
                    break
            evals = [float(r["eval_avg_reward"]) for r in rows
                     if not math.isnan(float(r["eval_avg_reward"]))]
            problems += [f"{where}: {p}" for p in self.check_log(tag, rows, evals)]
        return problems

    def check_log(self, tag: str, rows: list[dict], evals: list[float]) -> list[str]:
        raise NotImplementedError

    def observe(self, rounds: list[Round]) -> dict:
        """Final evaluation of each arm in each round."""
        finals: dict[str, list[float]] = {}
        for rnd in rounds:
            for tag, log in rnd.outputs.get("logs", {}).items():
                finals.setdefault(tag, []).append(float(read_rows(log)[-1]["eval_avg_reward"]))
        return {f"{tag}.final_evaluation": values for tag, values in finals.items()}


class TwoLoopSeparation(Training):
    # Which loop each arm ends on is reported, not checked: it is a learning
    # outcome that does not hold on every seed (see README.md).
    def __init__(self):
        super().__init__("twoloop", [("apo", "apo", None), ("ppo-0.9", "ppo", 0.9)], 10)

    def check_log(self, tag, rows, evals):
        h = EVAL_CADENCE["eval_horizon"]
        short_top = (1.0 + SHORT_LOOP_GAIN * (h - 1)) / h
        odd = [
            e for e in evals
            if abs(e - LONG_LOOP_GAIN) > GAIN_TOLERANCE
            and not (SHORT_LOOP_GAIN - GAIN_TOLERANCE <= e <= short_top + GAIN_TOLERANCE)
        ]
        if not evals or odd:
            return [f"evaluations {odd or evals} are neither the long-loop gain nor a short-loop gain"]
        return []


class PendulumApo(Training):
    def __init__(self):
        super().__init__("pendulum", [("apo", "apo", None)], 10)

    def check_log(self, tag, rows, evals):
        problems = []
        for r in rows:
            losses = (float(r["policy_loss"]), float(r["value_loss"]))
            if not all(math.isfinite(x) for x in losses):
                problems.append(f"non-finite loss at iteration {r['iteration']}")
                break
        for what, values in (("eta_hat", [float(r["eta_hat"]) for r in rows]), ("evaluation", evals)):
            bad = [v for v in values if not (PENDULUM_WORST <= v <= 0.0)]
            if bad:
                problems.append(f"{what} {bad[0]} outside [{PENDULUM_WORST}, 0]")
        if not evals:
            problems.append("no evaluation logged")
        return problems


class DriftAblation:
    """`apo ablate-nu` on `twostate` with nu = 0 and nu = 1, one seed."""

    NUS = ("0", "1")
    # The tail |b| at nu = 0 was above 3 and at nu = 1 below 0.06 on every
    # seed tried, at 100 and 200 iterations as at criterion 09's 500.
    iterations = 100
    cycle = 1

    def __init__(self):
        params = inspect.signature(training.value_drift_experiment).parameters
        self.rollout_len = params["rollout_len"].default

    def _ablate(self, seed: int, iterations: int, out: Path) -> tuple[int, str]:
        return run_cli(["ablate-nu", "--env", "twostate", "--nus", ",".join(self.NUS),
                        "--seeds", str(seed), "--iterations", str(iterations), "--out", str(out)])

    def warm_up(self, out_dir: Path) -> None:
        code, text = self._ablate(0, 2, out_dir / "warmup-ablate.csv")
        if code != 0:
            raise RuntimeError(f"warm-up `apo ablate-nu` failed: {text.strip()}")

    def run_round(self, rnd: Round, out_dir: Path) -> None:
        out = out_dir / f"r{rnd.index}-ablate.csv"
        planned = len(self.NUS) * self.iterations
        rnd.attempted += planned
        code, text = self._ablate(rnd.program_seed, self.iterations, out)
        if code != 0:
            rnd.failed += planned
            rnd.errors.append(f"ablate-nu: {text.strip()}")
            return
        rnd.work += planned * self.rollout_len
        rnd.outputs["ablate"] = out

    def check(self, rnd: Round) -> list[str]:
        if "ablate" not in rnd.outputs:
            return []
        where = f"round {rnd.index}"
        problems = []
        rows = read_rows(rnd.outputs["ablate"])
        results = rnd.outputs.get("results", [])
        tail = max(1, self.iterations // 4)
        drift = {}
        for row, result in zip(rows, results):
            nu = float(row["nu"])
            drift[nu] = float(row["mean_abs_b_last_quarter"])
            if len(result.b_series) != self.iterations:
                problems.append(f"{where}: nu={nu} ran {len(result.b_series)} iterations")
                continue
            mine = float(np.mean(np.abs(np.asarray(result.b_series)[-tail:])))
            if not math.isclose(mine, drift[nu], rel_tol=1e-12, abs_tol=1e-15):
                problems.append(f"{where}: nu={nu} tail |b| {drift[nu]} but the b series gives {mine}")
            eta = float(result.eta_series[-1])
            if abs(eta - TWOSTATE_UNIFORM_GAIN) > ETA_TOLERANCE:
                problems.append(f"{where}: nu={nu} final eta_hat {eta} far from {TWOSTATE_UNIFORM_GAIN}")
        if len(rows) != len(self.NUS) or len(results) != len(self.NUS):
            problems.append(f"{where}: expected {len(self.NUS)} ablation rows, got {len(rows)}")
        elif not drift[1.0] < drift[0.0]:
            problems.append(f"{where}: tail |b| at nu=1 ({drift[1.0]}) not below nu=0 ({drift[0.0]})")
        return problems

    def observe(self, rounds: list[Round]) -> dict:
        """Mean |b| over the last quarter, per nu, in each round."""
        tails: dict[str, list[float]] = {}
        for rnd in rounds:
            if "ablate" in rnd.outputs:
                for row in read_rows(rnd.outputs["ablate"]):
                    tails.setdefault(f"nu={row['nu']}.tail_abs_b", []).append(
                        float(row["mean_abs_b_last_quarter"]))
        return tails


# ---------------------------------------------------------------------------
# Exact workload


def occupancy(p: np.ndarray, gamma: float, d0: np.ndarray) -> np.ndarray:
    """The benchmark's own occupancy: least squares on the stacked balance
    and normalization equations at discount one, the discounted flow
    equation below one."""
    n = p.shape[0]
    if gamma == 1.0:
        a = np.vstack([p.T - np.eye(n), np.ones((1, n))])
        b = np.zeros(n + 1)
        b[-1] = 1.0
        return np.linalg.lstsq(a, b, rcond=None)[0]
    return np.linalg.solve(np.eye(n) - gamma * p.T, (1.0 - gamma) * d0)


class VerifySweep:
    """Rows of `apo verify` over random ergodic MDPs with 2..MAX_STATES
    states and 2..8 actions, each at the four default discounts."""

    mdps_per_round = 50
    cycle = 1

    @staticmethod
    def draw(mdp_rng, old_rng, new_rng):
        """One MDP and policy pair, drawn exactly as `apo verify` draws them."""
        n_states = int(mdp_rng.integers(2, MAX_STATES + 1))
        n_actions = int(mdp_rng.integers(2, MAX_ACTIONS + 1))
        mdp = cli.random_ergodic_mdp(mdp_rng, n_states, n_actions)
        pi_old = cli.random_policy(old_rng, n_states, n_actions)
        pi_new = cli.random_policy(new_rng, n_states, n_actions)
        return mdp, pi_old, pi_new

    @staticmethod
    def rngs(seed: int, index: int, i: int):
        return [np.random.default_rng(s) for s in np.random.SeedSequence([seed, index, i]).spawn(3)]

    @staticmethod
    def row(mdp, pi_old, pi_new, gamma):
        report = cli.check_performance_bound(mdp, pi_old, pi_new, gamma)
        lemma3 = cli.check_distribution_identity(mdp, pi_old, pi_new, gamma)
        return report, lemma3

    def warm_up(self, out_dir: Path) -> Path:
        out = out_dir / "warmup-verify.csv"
        code, text = run_cli(["verify", "--seeds", "2", "--states", str(MAX_STATES),
                              "--actions", str(MAX_ACTIONS), "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"warm-up `apo verify` failed: {text.strip()}")
        return out

    def check_mirror(self, cli_csv: Path) -> list[str]:
        """The rows this workload times are the rows `apo verify` writes."""
        rows = read_rows(cli_csv)
        mine = []
        for i in range(len(rows) // len(GAMMAS)):
            drawn = self.draw(np.random.default_rng(i), np.random.default_rng(10_000 + i),
                              np.random.default_rng(20_000 + i))
            for gamma in GAMMAS:
                report, lemma3 = self.row(*drawn, gamma)
                mine.append((repr(report.actual_diff), repr(report.lower), repr(report.upper), repr(lemma3)))
        theirs = [(r["actual_diff"], r["lower"], r["upper"], r["lemma3_residual"]) for r in rows]
        return [] if mine == theirs and mine else ["benchmark rows differ from `apo verify` rows"]

    def run_round(self, rnd: Round, out_dir: Path) -> None:
        clock = time.process_time
        results = rnd.outputs.setdefault("rows", [])
        for i in range(self.mdps_per_round):
            mdp, pi_old, pi_new = self.draw(*self.rngs(rnd.seed, rnd.index, i))
            for gamma in GAMMAS:
                rnd.attempted += 1
                t0 = clock()
                try:
                    report, lemma3 = self.row(mdp, pi_old, pi_new, gamma)
                except Exception as exc:  # a solver error fails this row only
                    rnd.failed += 1
                    rnd.errors.append(f"mdp {i} gamma {gamma}: {type(exc).__name__}: {exc}")
                    continue
                rnd.op_seconds.append(clock() - t0)
                rnd.work += 1
                results.append((i, gamma, report, lemma3))

    def check(self, rnd: Round) -> list[str]:
        problems = []
        drawn = {}
        for i, gamma, report, lemma3 in rnd.outputs.get("rows", []):
            where = f"round {rnd.index} mdp {i} gamma {gamma}"
            if i not in drawn:
                drawn[i] = self.draw(*self.rngs(rnd.seed, rnd.index, i))
            mdp, pi_old, pi_new = drawn[i]
            if not (report.holds_lower and report.holds_upper and report.holds_prop1 and report.holds_prop2):
                problems.append(f"{where}: bound violated")
            if not (report.lower <= report.actual_diff <= report.upper):
                problems.append(f"{where}: {report.actual_diff} outside [{report.lower}, {report.upper}]")
            if report.pdf_residual > PDF_TOLERANCE or lemma3 > OCCUPANCY_TOLERANCE:
                problems.append(f"{where}: residuals {report.pdf_residual}, {lemma3}")
            gains = [
                occupancy(np.einsum("sa,saj->sj", pi.probs, mdp.transition), gamma, mdp.init_dist)
                @ np.einsum("sa,sa->s", pi.probs, mdp.reward)
                for pi in (pi_old, pi_new)
            ]
            if abs((gains[1] - gains[0]) - report.actual_diff) > RESOLVE_TOLERANCE:
                problems.append(f"{where}: actual_diff {report.actual_diff} but re-solve gives {gains[1] - gains[0]}")
        return problems

    def observe(self, rounds: list[Round]) -> dict:
        """Largest residuals over every row."""
        rows = [row for rnd in rounds for row in rnd.outputs.get("rows", [])]
        return {
            "max_pdf_residual": max((r[2].pdf_residual for r in rows), default=0.0),
            "max_occupancy_residual": max((r[3] for r in rows), default=0.0),
        }


WORKLOADS = {
    "twoloop-separation": TwoLoopSeparation,
    "pendulum-apo": PendulumApo,
    "drift-ablation": DriftAblation,
    "verify-sweep": VerifySweep,
}
