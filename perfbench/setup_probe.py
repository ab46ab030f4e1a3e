"""One set-up sample, in a fresh process: `python3 setup_probe.py <workload> <dir> <src>`.

Times imports, environment or MDP construction, network init and a
warm-up call through the ``apo`` entry point of the package found in
`<src>` (the program's ``src/`` or the frozen reference), and prints the
CPU seconds this process spent on them.
"""

import time

T0 = time.process_time()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [sys.argv[3], str(BENCH)]

from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]]().warm_up(Path(sys.argv[2]))
print(repr(time.process_time() - T0))
