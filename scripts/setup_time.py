"""Time a benchmark workload's set-up, ``factory()`` plus ``start()``, in one process.

    python3 scripts/setup_time.py --workload lehmer200 --reps 1500

Generates the seed-0 instances of a workload from ``perfbench/workloads.py``
(one BLAS thread, library from ``src/``), untimed, then builds them REPS
times in turn, as the benchmark's set-up does, and prints the min and the
median of the build times.  A benchmark run takes few builds, which cannot
resolve a set-up of about a millisecond; run this in both checkouts, in
alternation, to compare two versions.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--reps", type=int, default=200)
    args = parser.parse_args(argv)
    from run import pin_threads
    pin_threads()
    from workloads import WORKLOADS

    instances = WORKLOADS[args.workload].instances(0)
    times = []
    for rep in range(args.reps):
        instance = instances[rep % len(instances)]
        t0 = time.perf_counter()
        instance.start(instance.factory())
        times.append(time.perf_counter() - t0)
    print(f"{args.workload}: {len(times)} builds, min {min(times) * 1e3:.3f} ms, "
          f"median {statistics.median(times) * 1e3:.3f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
