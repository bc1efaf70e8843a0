"""Entry point of the negsup pipeline benchmark; the work is in bench.py.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a source checkout: it needs src/negsup next to
this directory. It caps BLAS threads before numpy loads, so every result
is measured with the same thread count.
"""

from __future__ import annotations

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# One BLAS thread (not more than nproc anywhere): the default two-thread
# OpenBLAS spread throughput far more between identical runs.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main() -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "negsup", "pipeline.py")):
        print(f"error: no negsup sources under {ROOT}/src", file=sys.stderr)
        return 2
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import bench

    return bench.main(sys.argv[1:], ROOT, BLAS_THREADS)


if __name__ == "__main__":
    sys.exit(main())
