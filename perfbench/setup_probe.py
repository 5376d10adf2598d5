"""Set-up time of one workload in a fresh process.

usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Measures the CPU time of ``import vofde`` plus building the workload's
problems, from the first import of the benchmark's workload module to the
built workload, and prints the seconds on stdout.
"""

import sys
import time
from pathlib import Path


def main(argv: list[str]) -> int:
    name, seed = argv[1], int(argv[2])
    start = time.process_time()
    import workloads

    workloads.build(name, seed, out_dir=Path("unused"))
    print(repr(time.process_time() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
