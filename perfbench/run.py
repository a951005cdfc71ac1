"""Benchmark entry point: run one workload in this process, print its metrics.

    python3 perfbench/run.py --workload lehmer200 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from its
``src/``.  BLAS threads are pinned to one through this process's environment
before numpy loads.  Standard output carries one JSON line with the
environment, one per checked solve, one report line, and last the result:
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0`` times the
solves untouched and reports the end-to-end metrics; ``--trace 1`` wraps the
library's layer entry points and reports per-layer metrics, writing its spans
under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# One thread: on a 2-core machine it is the faster setting for every workload,
# and the iterates -- hence iteration counts -- depend on the thread count.
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    if "numpy" in sys.modules:
        raise RuntimeError("numpy is already loaded; BLAS threads can no longer be pinned")
    for var in THREAD_VARS:
        os.environ[var] = BLAS_THREADS


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": git_commit(ROOT),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "indefstiefel").is_dir():
        print(f"no library source at {SRC / 'indefstiefel'}", file=sys.stderr)
        return 2

    pin_threads()
    sys.path[:0] = [str(SRC), str(HERE)]
    from harness import timed_run, traced_run
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(json.dumps({"environment": environment(args.seed), "workload": workload.name,
                      "trace": args.trace, "seconds": args.seconds}))
    if args.trace:
        spans = HERE / "out" / f"spans-{workload.name}-seed{args.seed}.jsonl"
        out = traced_run(workload, args.seed, args.seconds, spans)
    else:
        out = timed_run(workload, args.seed, args.seconds)
    for rec in out["records"]:
        print(json.dumps({"solve": rec}))
    print(json.dumps({"report": out["report"]}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
