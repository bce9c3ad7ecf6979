"""Run one workload of the telelocal benchmark and print its metrics.

    python3 perfbench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

Workloads are ``reproduce``, ``state-sweep`` and ``locality``. The
program is imported from ``src/`` next to this directory; without it the
command exits 2 and prints no result. The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when a correctness check failed.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    if not (SRC / "telelocal" / "__init__.py").is_file():
        print(f"error: no telelocal source tree at {SRC}", file=sys.stderr)
        return 2
    # one caller and no helper threads: BLAS is pinned before NumPy loads
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import harness

    return harness.main(argv)


if __name__ == "__main__":
    raise SystemExit(main())
