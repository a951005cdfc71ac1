"""Time a benchmark workload's set-up, ``factory()`` plus ``start()``, in one process.

    python3 scripts/setup_time.py --workload lehmer200 --reps 1500

Generates the seed-0 instances of a workload from ``perfbench/workloads.py``
(one BLAS thread, library from ``src/``), untimed, then builds them REPS
times in turn, as the benchmark's set-up does, and prints the min and the
median of the build times.  A benchmark run takes few builds, which cannot
resolve a set-up of about a millisecond; run this in both checkouts, in
alternation, to compare two versions.

It then solves each start of each instance once and prints the minor page
faults per solve, read from the process's own ``resource.getrusage`` around
each solve.  glibc serves a block above its dynamic mmap threshold with a
fresh mmap that is faulted in page by page, and the threshold rises only when
the process frees a larger mmapped block: a set-up that frees different
blocks can move the solve's fault count, and its time, on the same iterates.
"""

from __future__ import annotations

import argparse
import resource
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
    from indefstiefel import solve
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    instances = workload.instances(0)
    times = []
    for rep in range(args.reps):
        instance = instances[rep % len(instances)]
        t0 = time.perf_counter()
        instance.start(instance.factory())
        times.append(time.perf_counter() - t0)
    print(f"{args.workload}: {len(times)} builds, min {min(times) * 1e3:.3f} ms, "
          f"median {statistics.median(times) * 1e3:.3f} ms")

    faults = []
    for instance in instances:
        problem = instance.factory()
        for x0 in instance.starts(instance.start(problem)):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            solve(problem, x0, workload.config)
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    print(f"{args.workload}: {len(faults)} solves, minor page faults per solve: "
          f"median {statistics.median(faults):g}, max {max(faults)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
