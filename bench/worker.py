"""One pass of one benchmark workload in a fresh interpreter.

    python3 bench/worker.py WORKLOAD SEED TRACE FULL

run.py starts this with PYTHONPATH pointing at the package sources and the
BLAS/OpenMP thread counts pinned to 1.  It prints one JSON object: the
CLOCK_MONOTONIC instant at which the package was imported and the inputs
were built (run.py subtracts its spawn instant to get the set-up time),
then the pass result of workloads.run_pass and the interpreter versions.
"""

import json
import platform
import sys
import time


def main():
    workload, seed, traced, full = sys.argv[1], int(sys.argv[2]), sys.argv[3] == "1", sys.argv[4] == "1"
    import numpy
    import workloads

    inputs = workloads.INPUTS[workload](seed)
    ready_at = time.monotonic()
    result = workloads.run_pass(workload, inputs, traced, full)
    result.update(ready_at=ready_at, python=platform.python_version(), numpy=numpy.__version__)
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
