#!/usr/bin/env python3
"""Benchmark of the apo package: four workloads, timed end to end or traced.

    python3 perfbench/run.py --workload verify-sweep --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Untraced (``--trace 0``) it measures set-up time in fresh
processes, then plays whole rounds of the workload until another round
would end past ``--seconds``, while the frozen reference copy of the
program (``reference.py``) plays the same rounds on the same CPU; it
reports the end-to-end metrics scaled to the reference's nominal speed.
Traced (``--trace 1``) it plays one cycle of rounds untraced and again
traced, checks that both wrote the same outputs, and reports per-layer
metrics from the traced one.
Every round's outputs are checked after the timed phase.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See README.md in this directory.
"""

from __future__ import annotations

import os

# One BLAS thread, set before numpy loads; child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import ctypes
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FROZEN = BENCH / "frozen"
OUT = BENCH / "out"
WORKLOAD_NAMES = ("twoloop-separation", "pendulum-apo", "drift-ablation", "verify-sweep")
SETUP_SAMPLES = 5
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "op_ms.p50": "ms",
    "op_ms.p99": "ms",
}

# The frozen reference's own figures per workload, medians of three to five
# runs on the sandbox README.md describes.  Each timed metric is the program's
# figure times (this nominal figure / the reference's figure in the same
# run), so that changes in the machine's speed cancel.
NOMINAL = {
    "twoloop-separation": {"setup_s": 0.321, "work_per_s": 5997.0, "op_ms.p50": 349.4, "op_ms.p99": 390.9},
    "pendulum-apo": {"setup_s": 0.2573, "work_per_s": 5816.0, "op_ms.p50": 351.0, "op_ms.p99": 372.5},
    "drift-ablation": {"setup_s": 0.4433, "work_per_s": 12921.0, "op_ms.p50": 19.35, "op_ms.p99": 21.47},
    "verify-sweep": {"setup_s": 0.2386, "work_per_s": 310.6, "op_ms.p50": 2.842, "op_ms.p99": 6.075},
}

# Per-layer metric -> (unit, span, statistic).  `per_check` divides by the
# number of verify rows (one bound check and one identity check each);
# `per_env_step` counts only calls made while collecting a rollout and
# divides by the env steps taken there.
LAYER_METRICS = {
    "envs.step.calls": ("count", "envs.step", "calls"),
    "envs.step.s": ("s", "envs.step", "s"),
    "nn.mlp_forward.per_env_step": ("count", "nn.mlp_forward", "per_env_step"),
    "nn.sample_action.s": ("s", "nn.sample_action", "s"),
    "nn.value_forward.s": ("s", "nn.value_forward", "s"),
    "nn.policy_log_prob.s": ("s", "nn.policy_log_prob", "s"),
    "nn.backward.calls": ("count", "nn.backward", "calls"),
    "nn.backward.s": ("s", "nn.backward", "s"),
    "nn.clip_global_norm.s": ("s", "nn.clip_global_norm", "s"),
    "nn.adam_step.s": ("s", "nn.adam_step", "s"),
    "training.policy_loss.s": ("s", "training.policy_loss", "s"),
    "training.value_loss.s": ("s", "training.value_loss", "s"),
    "training.collect_rollout.s": ("s", "training.collect_rollout", "s"),
    "training.collect_rollout.self_s": ("s", "training.collect_rollout", "self_s"),
    "training.TabularActor.act.s": ("s", "training.TabularActor.act", "s"),
    "training.compute_residuals_and_advantages.s": (
        "s", "training.compute_residuals_and_advantages", "s"),
    "training.evaluate.s": ("s", "training.evaluate", "s"),
    "nn.deterministic_action.s": ("s", "nn.deterministic_action", "s"),
    "training.TrainLog.write_csv.s": ("s", "training.TrainLog.write_csv", "s"),
    "nn.save_checkpoint.s": ("s", "nn.save_checkpoint", "s"),
    "bounds.check_performance_bound.s": ("s", "bounds.check_performance_bound", "s"),
    "bounds.check_distribution_identity.s": ("s", "bounds.check_distribution_identity", "s"),
    "bounds.surrogate_objective.s": ("s", "bounds.surrogate_objective", "s"),
    "analysis.stationary_distribution.per_check": (
        "count", "analysis.stationary_distribution", "per_check"),
    "analysis.fundamental_matrix.per_check": ("count", "analysis.fundamental_matrix", "per_check"),
    "analysis.discounted_state_distribution.per_check": (
        "count", "analysis.discounted_state_distribution", "per_check"),
    "analysis.value_functions.per_check": ("count", "analysis.value_functions", "per_check"),
    "analysis.kemeny_constant.s": ("s", "analysis.kemeny_constant", "s"),
    "analysis.mean_first_passage.s": ("s", "analysis.mean_first_passage", "s"),
    "mdp.induced_transition.per_check": ("count", "mdp.induced_transition", "per_check"),
    "mdp.policy_distance.s": ("s", "mdp.policy_distance", "s"),
    "mdp.random_ergodic_mdp.s": ("s", "mdp.random_ergodic_mdp", "s"),
    "numpy.linalg.solve.per_check": ("count", "numpy.linalg.solve", "per_check"),
}
# Computed from the round as a whole rather than from one span.
EXTRA_LAYER_UNITS = {
    "nn.save_checkpoint.bytes": "bytes",
    "other.self_s": "s",
    "trace.overhead_s": "s",
}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be non-negative and --seconds positive")
    return args


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info(np) -> dict:
    """numpy and OpenBLAS versions and the thread count OpenBLAS reports."""
    info = {"numpy": np.__version__, "openblas": None, "blas_threads": None}
    try:
        info["openblas"] = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (KeyError, TypeError):
        pass
    try:
        maps = Path("/proc/self/maps").read_text().splitlines()
    except OSError:
        maps = []
    for lib_path in sorted({ln.split()[-1] for ln in maps if "openblas" in ln.lower()}):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                info["blas_threads"] = int(getter())
                return info
    return info


def measure_setup(workload: str, out_dir: Path) -> dict[Path, list[float]]:
    """CPU time of set-up in fresh processes: imports, env or MDP
    construction, network init and a warm-up call through the entry point.
    Each sample starts a program probe and a reference probe together on
    the benchmark's CPU."""
    times: dict[Path, list[float]] = {SRC: [], FROZEN: []}
    for i in range(SETUP_SAMPLES):
        with contextlib.ExitStack() as stack:
            probes = {}
            for src in times:
                probe_dir = out_dir / "setup" / f"{src.name}{i}"
                probe_dir.mkdir(parents=True, exist_ok=True)
                probes[src] = stack.enter_context(subprocess.Popen(
                    [sys.executable, str(BENCH / "setup_probe.py"), workload, str(probe_dir), str(src)],
                    stdout=subprocess.PIPE, text=True,
                ))
                stack.callback(probes[src].kill)  # a no-op once it has exited
            for src, probe in probes.items():
                out, _ = probe.communicate(timeout=CHILD_TIMEOUT_S)
                if probe.returncode != 0:
                    raise RuntimeError(f"set-up probe of {src.name} exited {probe.returncode}")
                times[src].append(float(out.strip().splitlines()[-1]))
    return times


class Reference:
    """The reference player (reference.py) in its own process.  It warms up
    on start, plays rounds from `start()` on, and is terminated by `stop()`,
    which returns the rounds it finished."""

    def __init__(self, workload: str, seed: int, out_dir: Path):
        self._records = out_dir / "rounds.jsonl"
        self._records.unlink(missing_ok=True)
        self._proc = subprocess.Popen(
            [sys.executable, str(BENCH / "reference.py"), workload, str(seed), str(out_dir)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        if self._proc.stdout.readline() != "ready\n":
            raise RuntimeError(f"the reference player did not start (exit {self._proc.wait()})")

    def start(self) -> None:
        self._proc.stdin.write("go\n")
        self._proc.stdin.flush()

    def records(self) -> list[dict]:
        """The rounds finished so far."""
        if self._proc.poll() is not None:
            raise RuntimeError(f"the reference player ended early (exit {self._proc.returncode})")
        if not self._records.exists():
            return []
        lines = self._records.read_text().splitlines(keepends=True)
        records = [json.loads(ln) for ln in lines if ln.endswith("\n")]
        if any(r["failed"] for r in records):
            raise RuntimeError("the reference failed operations")
        return records

    def stop(self) -> list[dict]:
        records = self.records()
        self.close()
        return records

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.terminate()
        self._proc.wait()
        self._proc.stdin.close()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()


def play(workload, clock, seed: int, index: int, out_dir: Path):
    from workloads import Round, program_seed

    out_dir.mkdir(parents=True, exist_ok=True)
    rnd = Round(index=index, seed=seed, program_seed=program_seed(seed, index))
    t0, c0 = time.perf_counter(), time.process_time()
    workload.run_round(rnd, out_dir)
    rnd.seconds = time.process_time() - c0
    rnd.wall_seconds = time.perf_counter() - t0
    durations, returns = clock.take()
    rnd.op_seconds.extend(durations)
    rnd.outputs["results"] = returns
    return rnd


def same_outputs(a, b) -> bool:
    """Byte-equal logs and equal verify rows between two runs of a round."""
    def same(x, y):
        if isinstance(x, Path):
            return isinstance(y, Path) and x.read_bytes() == y.read_bytes()
        if isinstance(x, dict):
            return isinstance(y, dict) and x.keys() == y.keys() and all(same(x[k], y[k]) for k in x)
        return x == y

    keys = [k for k in a.outputs if k != "results"]
    return bool(keys) and all(same(a.outputs[k], b.outputs.get(k)) for k in keys)


def layer_metrics(summary: dict, traced_s: float, out_dir: Path) -> dict:
    spans = summary["spans"]

    def stat(span: str, key: str) -> float:
        return spans.get(span, {}).get(key, 0)

    checks = stat("bounds.check_performance_bound", "calls")
    rollout_steps = stat("envs.step", "calls_in_rollout")
    values = {}
    for name, (_, span, kind) in LAYER_METRICS.items():
        if kind == "per_check":
            values[name] = stat(span, "calls") / checks if checks else 0.0
        elif kind == "per_env_step":
            values[name] = stat(span, "calls_in_rollout") / rollout_steps if rollout_steps else 0.0
        else:
            values[name] = stat(span, kind)
    values["nn.save_checkpoint.bytes"] = sum(p.stat().st_size for p in out_dir.glob("*.npz"))
    values["other.self_s"] = traced_s - summary["outermost_s"]
    return values


def traced_run(workload, clock, seed: int, out_dir: Path, problems: list[str]):
    """One cycle of rounds untraced, then traced; per-layer metrics of the latter."""
    from tracer import Tracer
    from workloads import VerifySweep

    cycle = range(workload.cycle)
    plain = [play(workload, clock, seed, i, out_dir / "untraced") for i in cycle]
    tracer = Tracer()
    tracer.install()
    try:
        traced = [play(workload, clock, seed, i, out_dir / "traced") for i in cycle]
    finally:
        tracer.uninstall()
    tracer.write(out_dir / "spans.npz")
    summary = tracer.summary()
    if not all(same_outputs(a, b) for a, b in zip(plain, traced)):
        problems.append("traced and untraced runs of the same rounds wrote different outputs")
    rollout_steps = summary["spans"].get("envs.step", {}).get("calls_in_rollout", 0)
    traced_work = sum(r.work for r in traced)
    if not isinstance(workload, VerifySweep) and rollout_steps != traced_work:
        problems.append(f"{rollout_steps} env steps in rollouts, expected {traced_work}")
    plain_s, traced_s = (sum(r.wall_seconds for r in rounds) for rounds in (plain, traced))
    values = layer_metrics(summary, traced_s, out_dir / "traced")
    values["trace.overhead_s"] = traced_s - plain_s
    units = {name: unit for name, (unit, _, _) in LAYER_METRICS.items()} | EXTRA_LAYER_UNITS
    metrics = {name: (values[name], units[name]) for name in units}
    return plain + traced, plain_s + traced_s, metrics, {}


def op_ms(op_seconds: list[float]) -> dict:
    """Median and 99th percentile of operation times, in ms."""
    return {
        "op_ms.p50": 1e3 * statistics.median(op_seconds),
        "op_ms.p99": 1e3 * statistics.quantiles(op_seconds, n=100, method="inclusive")[98],
    }


def timed_run(workload, clock, seed: int, seconds: float, out_dir: Path,
              reference: Reference, setup_times: dict[Path, list[float]], nominal: dict):
    """Whole rounds until another would end past `seconds` and the reference,
    playing the same rounds meanwhile, has finished one; end-to-end metrics
    in CPU time from the rounds both sides finished while both ran."""
    rounds = []
    t0 = time.perf_counter()
    reference.start()
    while True:
        rounds.append(play(workload, clock, seed, len(rounds), out_dir))
        elapsed = time.perf_counter() - t0
        if elapsed + statistics.median(r.wall_seconds for r in rounds) > seconds and reference.records():
            break
    refs = reference.stop()
    both = min(len(rounds), len(refs))
    ops = [s for r in rounds[:both] for s in r.op_seconds]
    ref_ops = [s for f in refs[:both] for s in f["op_seconds"]]
    if min(len(ops), len(ref_ops)) < 2:
        raise RuntimeError(f"only {both} rounds finished on both sides; nothing to report")
    program = {
        "setup_s": statistics.median(setup_times[SRC]),
        "work_per_s": sum(r.work for r in rounds[:both]) / sum(r.seconds for r in rounds[:both]),
        **op_ms(ops),
    }
    measured = {
        "setup_s": statistics.median(setup_times[FROZEN]),
        "work_per_s": sum(f["work"] for f in refs[:both]) / sum(f["seconds"] for f in refs[:both]),
        **op_ms(ref_ops),
    }
    values = {name: program[name] * nominal[name] / measured[name] for name in program}
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    return rounds, elapsed, metrics, {"rounds_both": both, "program": program, "reference": measured}


def run_one(args) -> int:
    if not (SRC / "apo" / "__init__.py").is_file():
        print(f"perfbench: no program at {SRC / 'apo'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import apo

    if Path(apo.__file__).resolve().parent != SRC / "apo":
        print(f"perfbench: imported apo from {apo.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from tracer import IterationClock
    from workloads import WORKLOADS, VerifySweep

    # The program, the reference and every set-up probe share one CPU, so
    # that the reference meets the same machine as the program.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload]()
    out_dir = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    out_dir.mkdir(parents=True, exist_ok=True)
    problems: list[str] = []

    with contextlib.ExitStack() as stack:
        reference = None
        if not args.trace:
            reference = stack.enter_context(Reference(args.workload, args.seed, out_dir / "reference"))
        setup_times = measure_setup(args.workload, out_dir) if reference else {}

        clock = IterationClock()
        clock.install()
        stack.callback(clock.uninstall)
        warm = workload.warm_up(out_dir)
        if isinstance(workload, VerifySweep):
            problems += workload.check_mirror(warm)
        clock.take()
        if reference:
            rounds, elapsed, metrics, figures = timed_run(
                workload, clock, args.seed, args.seconds, out_dir, reference, setup_times,
                NOMINAL[args.workload])
        else:
            rounds, elapsed, metrics, figures = traced_run(workload, clock, args.seed, out_dir, problems)

    for rnd in rounds:
        problems += workload.check(rnd)
    errors = [e for r in rounds for e in r.errors]
    ops = [s for r in rounds for s in r.op_seconds]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    context = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "measured_s": elapsed,
        "rounds": len(rounds),
        "program_seeds": sorted({r.program_seed for r in rounds}),
        "attempted": attempted,
        "failed": failed,
        "ops_timed": len(ops),
        "unscaled": figures,
        "setup_samples_s": {src.name: samples for src, samples in setup_times.items()},
        "git_sha": git_sha(),
        **blas_info(np),
        "observed": workload.observe(rounds),
        "problems": problems[:20],
        "errors": errors[:20],
    }
    (out_dir / "result.json").write_text(json.dumps(
        {"context": context, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}},
        indent=2) + "\n")
    for line in errors[:20]:
        print(f"failed: {line}")
    for line in problems[:20]:
        print(f"check failed: {line}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:<20} {name:<48} {value:>14.6g} {unit}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload in turn, each in its own process, one at a time."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", repr(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode not in (0, 1) or not lines:
            print(done.stderr, file=sys.stderr)
            return 2
        result = json.loads(lines[-1])
        worst = max(worst, done.returncode)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(merged))
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
