"""End-to-end tests for the command line interface."""

import dataclasses
import inspect
import json
import sys

import numpy as np
import pytest

from apo import cli, training
from apo.envs import make_two_state, switch_policy
from apo.mdp import Mdp, random_policy, write_mdp, write_policy
from apo.nn import load_checkpoint
from apo.training import NonFiniteLossError, TrainConfig, init_trainer
from apo.envs import TabularEnv


@pytest.fixture
def two_state_files(tmp_path):
    mdp_path = tmp_path / "mdp.json"
    policy_path = tmp_path / "policy.json"
    write_mdp(make_two_state(), mdp_path)
    write_policy(switch_policy(1.0, 1.0), policy_path)
    return mdp_path, policy_path


def run_cli(argv):
    return cli.main(argv)


def stderr_payload(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


class TestAnalyze:
    def test_writes_full_report(self, two_state_files, tmp_path, capsys):
        mdp_path, policy_path = two_state_files
        out = tmp_path / "report.json"
        code = run_cli(["analyze", "--mdp", str(mdp_path), "--policy",
                        str(policy_path), "--gamma", "1.0", "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["eta_avg"] == pytest.approx(0.5, abs=1e-12)
        assert report["kemeny"] == pytest.approx(1.5, abs=1e-10)
        np.testing.assert_allclose(report["v"], [-0.25, 0.25], atol=1e-10)
        np.testing.assert_allclose(report["d_stat"], [0.5, 0.5], atol=1e-10)
        assert report["value_shift_from_raw_poisson"] == report["eta_avg"]
        for key in ("stationary_balance", "z_row_sums", "value_zero_mean",
                    "kemeny_row_spread"):
            assert abs(report["residuals"][key]) < 1e-9
        assert "wrote" in capsys.readouterr().out

    def test_discounted_report_approaches_average_one(self, two_state_files, tmp_path):
        mdp_path, policy_path = two_state_files
        values = {}
        for gamma in ("0.999", "1.0"):
            out = tmp_path / f"report_{gamma}.json"
            assert run_cli(["analyze", "--mdp", str(mdp_path), "--policy",
                            str(policy_path), "--gamma", gamma,
                            "--out", str(out)]) == 0
            values[gamma] = np.array(json.loads(out.read_text())["v"])
        np.testing.assert_allclose(values["0.999"], values["1.0"], atol=1e-2)

    def test_invalid_mdp_reports_violations(self, tmp_path, capsys):
        bad = Mdp(
            transition=np.array([[[0.9, 0.0], [0.5, 0.5]],
                                 [[0.5, 0.5], [0.5, 0.5]]]),
            reward=np.zeros((2, 2)),
            init_dist=np.array([0.5, 0.5]),
        )
        mdp_path = tmp_path / "bad.json"
        write_mdp(bad, mdp_path)
        policy_path = tmp_path / "policy.json"
        write_policy(switch_policy(0.5, 0.5), policy_path)
        code = run_cli(["analyze", "--mdp", str(mdp_path), "--policy",
                        str(policy_path), "--out", str(tmp_path / "r.json")])
        assert code == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "invalid-mdp"
        assert any(v["kind"] == "row-sum" for v in payload["detail"])

    def test_non_ergodic_policy_fails(self, tmp_path, capsys):
        mdp_path = tmp_path / "mdp.json"
        write_mdp(make_two_state(), mdp_path)
        policy_path = tmp_path / "stay.json"
        write_policy(switch_policy(0.0, 0.0), policy_path)
        code = run_cli(["analyze", "--mdp", str(mdp_path), "--policy",
                        str(policy_path), "--out", str(tmp_path / "r.json")])
        assert code == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "not-ergodic"
        assert "unreachable_pair" in payload["detail"]

    def test_missing_file_reports_file_error(self, tmp_path, capsys):
        code = run_cli(["analyze", "--mdp", str(tmp_path / "nope.json"),
                        "--policy", str(tmp_path / "nope2.json"),
                        "--out", str(tmp_path / "r.json")])
        assert code == 1
        assert stderr_payload(capsys)["error"] == "file-error"

    def test_garbled_json_names_the_file(self, tmp_path, capsys):
        mdp_path = tmp_path / "garbled.json"
        mdp_path.write_text("{not json")
        code = run_cli(["analyze", "--mdp", str(mdp_path), "--policy",
                        str(mdp_path), "--out", str(tmp_path / "r.json")])
        assert code == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "file-error"
        assert "garbled.json" in payload["detail"]


class TestVerify:
    def test_small_sweep_passes(self, tmp_path, capsys):
        out = tmp_path / "verify.csv"
        code = run_cli(["verify", "--seeds", "3", "--states", "5",
                        "--actions", "3", "--gammas", "0.9,1.0",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ",".join(cli.VERIFY_COLUMNS)
        assert len(lines) == 1 + 3 * 2
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == len(cli.VERIFY_COLUMNS)
            assert fields[13:17] == ["True"] * 4
        summary = capsys.readouterr().out
        assert "6 checks, 0 violations" in summary

    def test_rerun_is_byte_identical(self, tmp_path):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"verify_{tag}.csv"
            assert run_cli(["verify", "--seeds", "2", "--gammas", "0.95",
                            "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_violation_exits_two(self, tmp_path, monkeypatch, capsys):
        real = cli.check_performance_bound

        def broken(mdp, pi_old, pi_new, gamma, d0=None, slack=1e-9):
            report = real(mdp, pi_old, pi_new, gamma, d0=d0, slack=slack)
            return dataclasses.replace(report, holds_upper=False)

        monkeypatch.setattr(cli, "check_performance_bound", broken)
        out = tmp_path / "verify.csv"
        code = run_cli(["verify", "--seeds", "1", "--gammas", "0.9",
                        "--out", str(out)])
        assert code == 2
        assert "1 violations" in capsys.readouterr().out
        assert "False" in out.read_text()

    def test_state_bounds_are_enforced(self, tmp_path, capsys):
        code = run_cli(["verify", "--seeds", "1", "--states", "1",
                        "--out", str(tmp_path / "v.csv")])
        assert code == 1
        assert stderr_payload(capsys)["error"] == "invalid-input"


class TestTrain:
    def write_config(self, tmp_path, **overrides):
        payload = dict(
            iterations=2,
            rollout_len=64,
            minibatch=32,
            epochs=2,
            hidden=[8],
            eval_every=1,
            eval_horizon=30,
            eval_episodes=2,
        )
        payload.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(payload))
        return path

    def test_train_writes_log_and_checkpoint(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run.csv"
        code = run_cli(["train", "--env", "twostate", "--config", str(cfg),
                        "--seed", "3", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# algo=apo seed=3")
        assert len(lines) == 2 + 2
        nets, adams = load_checkpoint(out.with_suffix(".ckpt.npz"))
        assert set(nets) == {"policy", "value"}
        assert set(adams) == {"policy", "value"}
        assert nets["policy"].head == "categorical"
        assert adams["policy"].t > 0
        assert "final eval" in capsys.readouterr().out

    def test_train_on_file_environment(self, tmp_path):
        mdp_path = tmp_path / "env.json"
        write_mdp(make_two_state(), mdp_path)
        cfg = self.write_config(tmp_path, eval_every=0)
        out = tmp_path / "run.csv"
        code = run_cli(["train", "--env", f"file:{mdp_path}", "--config",
                        str(cfg), "--seed", "1", "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_algo_and_gamma_overrides_reach_the_log(self, tmp_path):
        cfg = self.write_config(tmp_path, eval_every=0)
        out = tmp_path / "run.csv"
        code = run_cli(["train", "--env", "twostate", "--config", str(cfg),
                        "--algo", "ppo", "--gamma", "0.9", "--seed", "2",
                        "--out", str(out)])
        assert code == 0
        header = out.read_text().splitlines()[0]
        assert "algo=ppo" in header

    def test_unknown_env_fails_cleanly(self, tmp_path, capsys):
        code = run_cli(["train", "--env", "cartpole",
                        "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert stderr_payload(capsys)["error"] == "invalid-input"

    def test_unknown_config_key_fails(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"learning_rate": 1e-3}))
        code = run_cli(["train", "--env", "twostate", "--config", str(path),
                        "--out", str(tmp_path / "r.csv")])
        assert code == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "invalid-input"
        assert "learning_rate" in payload["detail"]

    def test_malformed_config_json_fails(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text("{broken")
        code = run_cli(["train", "--env", "twostate", "--config", str(path),
                        "--out", str(tmp_path / "r.csv")])
        assert code == 1
        assert "config.json" in stderr_payload(capsys)["detail"]

    @pytest.mark.parametrize(
        "overrides",
        [{"nu": float("nan")}, {"iterations": 2.0}, {"eval_horizon": 0}, {"eval_episodes": 0}],
    )
    def test_invalid_config_values_fail_cleanly(self, tmp_path, capsys, overrides):
        cfg = self.write_config(tmp_path, **overrides)
        out = tmp_path / "r.csv"
        code = run_cli(["train", "--env", "twostate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "invalid-input"
        assert next(iter(overrides)) in payload["detail"]
        assert not out.exists()

    def test_divergence_dumps_state(self, tmp_path, monkeypatch, capsys):
        env = TabularEnv(make_two_state(), np.random.default_rng(0))
        state = init_trainer(env, TrainConfig(hidden=(8,)), np.random.default_rng(0))

        def explode(env, config):
            raise NonFiniteLossError("policy loss became nan at iteration 5", state)

        monkeypatch.setattr(cli, "train", explode)
        out = tmp_path / "run.csv"
        code = run_cli(["train", "--env", "twostate", "--out", str(out)])
        assert code == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "non-finite-loss"
        dump = out.with_suffix(".dump.npz")
        assert dump.exists()
        assert payload["detail"]["state_dump"] == str(dump)
        nets, _ = load_checkpoint(dump)
        assert set(nets) == {"policy", "value"}
        assert not out.exists()

    def test_non_finite_gradient_dumps_state(self, tmp_path, monkeypatch, capsys):
        # the policy loss stays finite while its gradient is NaN
        original = training.policy_loss

        def poisoned(*args):
            loss, grads = original(*args)
            grads[:] = np.nan
            return loss, grads

        monkeypatch.setattr(training, "policy_loss", poisoned)
        cfg = self.write_config(tmp_path)
        out = tmp_path / "run.csv"
        code = run_cli(["train", "--env", "twostate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "non-finite-loss"
        assert "policy loss gradient for tensor 'w0'" in payload["detail"]["message"]
        dump = out.with_suffix(".dump.npz")
        assert payload["detail"]["state_dump"] == str(dump)
        nets, adams = load_checkpoint(dump)
        assert set(nets) == {"policy", "value"}
        assert adams["policy"].t == 0
        assert not out.exists()


class TestAblateNu:
    def test_small_grid(self, tmp_path, capsys):
        out = tmp_path / "ablate.csv"
        code = run_cli(["ablate-nu", "--env", "twostate", "--nus", "0,1.0",
                        "--seeds", "0", "--iterations", "4",
                        "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "nu,seed,final_eval_reward,mean_abs_b_last_quarter"
        assert len(lines) == 3
        for line in lines[1:]:
            nu, seed, final_eval, drift = line.split(",")
            assert float(nu) in (0.0, 1.0)
            assert int(seed) == 0
            assert np.isfinite(float(final_eval))
            assert float(drift) >= 0.0
        assert "ablate-nu: wrote" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "flags,fragment",
        [(["--nus", "nan"], "nu"), (["--nus", "-1"], "nu"), (["--iterations", "0"], "iterations"),
         # a bad pair after a good one still fails before any run starts
         (["--nus", "0,-1"], "nu"), (["--nus", "0,nan"], "nu"), (["--seeds", "0,-1"], "seed")],
    )
    def test_invalid_grid_fails_cleanly(self, tmp_path, capsys, flags, fragment):
        out = tmp_path / "ablate.csv"
        code = run_cli(["ablate-nu", "--env", "twostate", "--nus", "0", "--seeds", "0",
                        "--iterations", "2", *flags, "--out", str(out)])
        assert code == 1
        captured = capsys.readouterr()
        assert "ablate-nu: nu=" not in captured.out
        payload = json.loads(captured.err.strip().splitlines()[-1])
        assert payload["error"] == "invalid-input"
        assert fragment in payload["detail"]
        assert not out.exists()

    def test_runs_without_train(self, tmp_path, monkeypatch):
        # the benchmark wraps every `apo` binding of `train` and of
        # `value_drift_experiment` to time each call; the experiment must not
        # go through `train`, or one run would count as two
        def refuse(*args, **kwargs):
            raise AssertionError("value_drift_experiment called train")

        original = training.train
        for name, module in list(sys.modules.items()):
            if name == "apo" or name.startswith("apo."):
                for key, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, key, refuse)
        assert training.train is refuse and cli.train is refuse
        assert cli.value_drift_experiment is training.value_drift_experiment
        params = inspect.signature(training.value_drift_experiment).parameters
        assert params["rollout_len"].default == 256

        env = TabularEnv(make_two_state(), np.random.default_rng(0))
        res = training.value_drift_experiment(env, switch_policy(0.5, 0.5), 0.3, iterations=2)
        assert res.b_series.shape == (2,)
        out = tmp_path / "ablate.csv"
        assert run_cli(["ablate-nu", "--env", "twostate", "--nus", "0", "--seeds", "0",
                        "--iterations", "2", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2

    def test_divergence_reports_non_finite_loss(self, tmp_path, monkeypatch, capsys):
        def explode(env, behavior, nu, **kwargs):
            raise NonFiniteLossError("value loss became nan at iteration 3", None)

        monkeypatch.setattr(cli, "value_drift_experiment", explode)
        out = tmp_path / "ablate.csv"
        code = run_cli(["ablate-nu", "--env", "twostate", "--nus", "0", "--seeds", "0",
                        "--out", str(out)])
        assert code == 1
        payload = stderr_payload(capsys)
        assert payload["error"] == "non-finite-loss"
        assert "iteration 3" in payload["detail"]["message"]
        assert not out.exists()

    def test_rejects_continuous_env(self, tmp_path, capsys):
        code = run_cli(["ablate-nu", "--env", "pendulum",
                        "--out", str(tmp_path / "a.csv")])
        assert code == 1
        assert "tabular" in stderr_payload(capsys)["detail"]


class TestParser:
    def test_verify_defaults(self):
        args = cli.build_parser().parse_args(["verify", "--out", "x.csv"])
        assert args.seeds == 100
        assert args.states == 8
        assert args.actions == 4
        assert args.gammas == "0.9,0.99,0.999,1.0"

    def test_train_requires_env_and_out(self, capsys):
        with pytest.raises(SystemExit):
            cli.build_parser().parse_args(["train", "--out", "x.csv"])
        capsys.readouterr()

    def test_random_policy_helper_used_by_verify_is_stochastic(self):
        pi = random_policy(np.random.default_rng(0), 4, 3)
        np.testing.assert_allclose(pi.probs.sum(axis=1), np.ones(4), atol=1e-12)
