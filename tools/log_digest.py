"""Print one sha256 per output of a fixed set of `apo` CLI calls.

Run it on two checkouts and `diff` the two listings to see whether a change
kept logs, checkpoints and reports byte-identical:

    python3 tools/log_digest.py > after.txt
    python3 tools/log_digest.py --src ../parent/src > before.txt
    diff before.txt after.txt

Each call runs `apo.cli.main` in its own interpreter, with ``PYTHONPATH``
set to ``--src`` (default: this checkout's ``src``) and one BLAS thread, in
a temporary directory.  The set:

- ``train`` on twostate (seed 3), twoloop with apo and with ppo at gamma 0.9
  (seed 11), pendulum (seed 5) and, with apo, a ``file:`` MDP whose start
  state is transient (seed 4), each 6 iterations with an evaluation every 3:
  the log CSV, the checkpoint and the printed summary;
- ``ablate-nu`` at nu 0 and 1, seeds 0 and 1, 100 iterations; on twoloop
  at nu 0.3, seed 2, 30 iterations; and on the transient ``file:`` MDP at
  nu 0 and 1, seeds 0 and 1, 20 iterations;
- ``verify`` at its default flags;
- ``analyze`` of a seeded 12-state, 4-action MDP under a seeded policy.

Every listed output is hashed, the printed lines included; a call that
exits non-zero stops the run.  It takes about ten seconds on two cores.

A float depends on the BLAS build and the kernel it picks for the CPU, so
the listing starts with two ``#`` lines naming the numpy and OpenBLAS in
use.  ``tools/log_digest.txt`` is the committed listing, which
``tests/test_log_digest.py`` compares against; the test skips when those
two lines differ from the running ones.  A change that moves a float on
purpose regenerates it:

    python3 tools/log_digest.py > tools/log_digest.txt
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

RUNNER = "import sys; from apo.cli import main; sys.exit(main(sys.argv[1:]))"
SHORT_TRAIN = {"iterations": 6, "eval_every": 3}

# (name, `apo train` flags other than --config and --out)
TRAIN_RUNS = [
    ("train-twostate-s3", ["--env", "twostate", "--seed", "3"]),
    ("train-twoloop-apo-s11", ["--env", "twoloop", "--algo", "apo", "--seed", "11"]),
    ("train-twoloop-ppo0.9-s11",
     ["--env", "twoloop", "--algo", "ppo", "--gamma", "0.9", "--seed", "11"]),
    ("train-pendulum-s5", ["--env", "pendulum", "--seed", "5"]),
]


def write_transient_mdp(work: Path) -> Path:
    """A 6-state, 3-action MDP that starts in state 5 and never returns to
    it: after the first step a rollout stays among states 0-4."""
    rng = np.random.default_rng(6)
    s, a = 6, 3
    transition = np.zeros((s, a, s))
    transition[:, :, :5] = rng.dirichlet(np.ones(5), size=(s, a))
    mdp = {
        "n_states": s,
        "n_actions": a,
        "transition": transition.tolist(),
        "reward": rng.uniform(-1.0, 1.0, size=(s, a)).tolist(),
        "init_dist": np.eye(s)[5].tolist(),
    }
    path = work / "transient.json"
    path.write_text(json.dumps(mdp))
    return path


def write_analyze_inputs(work: Path) -> tuple[Path, Path]:
    """A 12-state, 4-action MDP with every transition positive, and a policy."""
    rng = np.random.default_rng(12)
    s, a = 12, 4
    mdp = {
        "n_states": s,
        "n_actions": a,
        "transition": rng.dirichlet(np.ones(s), size=(s, a)).tolist(),
        "reward": rng.uniform(-1.0, 1.0, size=(s, a)).tolist(),
        "init_dist": np.full(s, 1.0 / s).tolist(),
    }
    policy = {"probs": rng.dirichlet(np.ones(a), size=s).tolist()}
    mdp_path, policy_path = work / "mdp.json", work / "policy.json"
    mdp_path.write_text(json.dumps(mdp))
    policy_path.write_text(json.dumps(policy))
    return mdp_path, policy_path


def calls(work: Path) -> list[tuple[str, list[str], list[Path]]]:
    config = work / "short.json"
    config.write_text(json.dumps(SHORT_TRAIN))
    transient_env = f"file:{write_transient_mdp(work)}"
    transient = ("train-transient-apo-s4",
                 ["--env", transient_env, "--algo", "apo", "--seed", "4"])
    out = []
    for name, argv in [*TRAIN_RUNS, transient]:
        log = work / f"{name}.csv"
        out.append((name, ["train", *argv, "--config", str(config), "--out", str(log)],
                    [log, log.with_suffix(".ckpt.npz")]))
    for name, argv in [("ablate-nu", ["--nus", "0,1", "--seeds", "0,1", "--iterations", "100"]),
                       ("ablate-nu-twoloop", ["--env", "twoloop", "--nus", "0.3", "--seeds", "2",
                                              "--iterations", "30"]),
                       ("ablate-nu-transient", ["--env", transient_env, "--nus", "0,1",
                                                "--seeds", "0,1", "--iterations", "20"])]:
        ablate = work / f"{name}.csv"
        out.append((name, ["ablate-nu", *argv, "--out", str(ablate)], [ablate]))
    verify = work / "verify.csv"
    out.append(("verify", ["verify", "--out", str(verify)], [verify]))
    mdp_path, policy_path = write_analyze_inputs(work)
    for gamma in ("1", "0.9"):
        report = work / f"analyze-g{gamma}.json"
        out.append((f"analyze-g{gamma}", ["analyze", "--mdp", str(mdp_path), "--policy",
                                          str(policy_path), "--gamma", gamma,
                                          "--out", str(report)], [report]))
    return out


def versions() -> list[str]:
    """The numpy version and the OpenBLAS configuration in use, one line
    each.  The configuration comes from the loaded library, since it names
    the kernel picked at run time; failing that, the build's version."""
    numpy = f"numpy {np.__version__}"
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    for lib_path in sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()}):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_config64_", "openblas_get_config64_",
                       "openblas_get_config"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_char_p
                return [numpy, getter().decode().strip()]
    version = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    return [numpy, f"OpenBLAS {version}"]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src"),
                        help="directory holding the apo package to run")
    args = parser.parse_args(argv)
    for line in versions():
        print(f"# {line}")
    env = dict(os.environ, PYTHONPATH=str(Path(args.src).resolve()),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    with tempfile.TemporaryDirectory(prefix="apo-digest-") as tmp:
        work = Path(tmp)
        for name, argv_, outputs in calls(work):
            proc = subprocess.run([sys.executable, "-c", RUNNER, *argv_], cwd=work, env=env,
                                  capture_output=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr.decode(errors="replace"))
                print(f"{name}: exit code {proc.returncode}", file=sys.stderr)
                return 1
            # printed lines name the temporary directory; hash them without it
            print(f"{digest(proc.stdout.replace(tmp.encode(), b'<tmp>'))}  {name}.stdout")
            for path in outputs:
                print(f"{digest(path.read_bytes())}  {path.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
