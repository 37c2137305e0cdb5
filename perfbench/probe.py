"""One cold set-up of a workload, timed in a fresh interpreter.

    python3 perfbench/probe.py <workload> <seed> <size> <workdir>

Prints the seconds from before ``import eiv_lpe`` to the end of building the
workload's inputs.  run.py starts it several times and reports the median
as ``setup_s``.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402  (imports no eiv_lpe module)

workload, seed, size, workdir = sys.argv[1:5]
workloads.build(workload, int(seed), size, Path(workdir))
print(time.perf_counter() - start)
