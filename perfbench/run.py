"""Launcher of the gpktheory benchmark.

    python3 perfbench/run.py --workload corpus|oracle|warm --seed N --seconds S --trace 0|1

Runs the workload in one child process (perfbench/bench.py) with BLAS and
OpenMP pools pinned to one thread and without bytecode caches (every run
compiles the package the same way and leaves no files in src/), relays its
output, and exits with its exit code.  The last line of standard output is
the result as JSON.
"""

import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
TIMEOUT_S = 170


def main():
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]]
    try:
        proc = subprocess.run(cmd, cwd=HERE.parent, env=env, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run has killed the child and waited for it
        print(f"error: workload did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
