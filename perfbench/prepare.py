"""Make one workload's inputs from a seed, in a process of its own.

    python3 perfbench/prepare.py WORKLOAD SEED OUT_DIR

Runs apart from the measured process so that generating data (and, for
serve-explain, building and training the model to be served) neither counts
as set-up nor raises the measured process's peak memory.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.join(os.path.dirname(HERE), "src")]

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    name, seed, out = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    WORKLOADS[name].prepare(seed, out)
