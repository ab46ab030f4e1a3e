"""The reference player: a workload's rounds played on the frozen copy of
the program in ``frozen/``.

    python3 reference.py <workload> <seed> <out_dir>

After its warm-up it writes ``ready`` and waits for a line on standard
input; then it plays rounds 0, 1, 2, ... of the workload until it is
terminated, appending one JSON line per finished round to
``<out_dir>/rounds.jsonl``: ``seconds`` (CPU time), ``work``, ``failed``
and ``op_seconds`` (CPU time of each operation).  ``run.py`` runs it on the
program's CPU while the program plays the same rounds, so that the two
share every change in the machine's speed; see README.md.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
FROZEN = BENCH / "frozen"


def main() -> int:
    workload_name, seed, out_dir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    sys.path[:0] = [str(FROZEN), str(BENCH)]
    import apo

    if Path(apo.__file__).resolve().parent != FROZEN / "apo":
        print(f"reference: imported apo from {apo.__file__}, not from {FROZEN}", file=sys.stderr)
        return 2
    from run import play
    from tracer import IterationClock
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]()
    out_dir.mkdir(parents=True, exist_ok=True)
    clock = IterationClock()
    clock.install()
    workload.warm_up(out_dir)
    clock.take()
    print("ready", flush=True)
    if not sys.stdin.readline():
        return 0
    with open(out_dir / "rounds.jsonl", "w") as records:
        index = 0
        while True:
            rnd = play(workload, clock, seed, index, out_dir)
            records.write(json.dumps({"seconds": rnd.seconds, "work": rnd.work, "failed": rnd.failed,
                                      "op_seconds": rnd.op_seconds}) + "\n")
            records.flush()
            index += 1


if __name__ == "__main__":
    sys.exit(main())
