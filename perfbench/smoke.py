#!/usr/bin/env python3
"""Fast smoke run of the benchmark itself (about ten seconds).

    python3 perfbench/smoke.py

Runs the quickest workload untraced and traced for one second each, checks
that the last line of each run is a correct result carrying every metric
BENCHMARK.json names, and checks that the benchmark refuses to run, printing
no result, in a directory holding only BENCHMARK.json and this directory.
The file is not named ``test_*`` and lives outside ``tests/``, so the test
suite does not collect it.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(cwd: Path, trace: int) -> subprocess.CompletedProcess:
    argv = [*SPEC["command"], "--workload", SPEC["workloads"][-1]["name"], "--seed", "1",
            "--seconds", "1", "--trace", str(trace)]
    argv[0] = sys.executable
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def main() -> int:
    failures = []
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        done = run(ROOT, trace)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        wanted = {m["name"] for m in SPEC[section]}
        if done.returncode != 0 or set(result) != {"correct", "attempted", "failed", "metrics"}:
            failures.append(f"trace {trace}: exit {done.returncode}, last line {lines[-1:]}")
        elif not (result["correct"] and result["attempted"] >= 1 and result["failed"] == 0):
            failures.append(f"trace {trace}: {result}")
        elif set(result["metrics"]) != wanted:
            failures.append(f"trace {trace}: metrics {sorted(set(result['metrics']) ^ wanted)} differ")

    bare = BENCH / "out" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run(bare, 0)
    if done.returncode == 0 or done.stdout.strip():
        failures.append(f"bare directory: exit {done.returncode}, output {done.stdout!r}")
    shutil.rmtree(bare)

    for line in failures:
        print(f"smoke: FAIL {line}")
    print("smoke: PASS" if not failures else "smoke: FAIL")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
