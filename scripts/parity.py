"""Fingerprint every solve of a benchmark workload, or compare two fingerprints.

    python3 scripts/parity.py --workload tridiag2000 --seed 0 --out a.json
    python3 scripts/parity.py --compare a.json b.json

The first form solves each start of each instance of a workload from
``perfbench/workloads.py`` (one BLAS thread, library from ``src/``) and
writes, per solve: status, iterations, f-evaluations, the history without its
``time_s`` column, and the sha256 of the final X.  ``--limit N`` keeps the
first N solves.  The second form exits 1 at the first difference between
the solve lists of two such files, and 0 when they are equal.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def fingerprints(workload_name: str, seed: int, limit: int | None) -> list[dict]:
    import numpy as np
    from indefstiefel import solve
    from workloads import WORKLOADS

    workload, out = WORKLOADS[workload_name], []
    for instance in workload.instances(seed):
        problem = instance.factory()
        for x0 in instance.starts(instance.start(problem)):
            if limit is not None and len(out) == limit:
                return out
            record = solve(problem, x0, workload.config)
            sha = hashlib.sha256(np.ascontiguousarray(record.x).tobytes()).hexdigest()
            out.append({"status": record.status, "iters": record.n_iter, "fevals": record.n_feval,
                        "history": [list(row[:5]) for row in record.rows], "x_sha256": sha})
    return out


def compare(path_a: str, path_b: str) -> int:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    print(f"{path_a}: {a['workload']} seed {a['seed']}; {path_b}: {b['workload']} seed {b['seed']}")
    if len(a["solves"]) != len(b["solves"]):
        print(f"solve counts differ: {len(a['solves'])} vs {len(b['solves'])}")
        return 1
    for i, (sa, sb) in enumerate(zip(a["solves"], b["solves"])):
        for key in sa:
            # compared as JSON text, so NaN equals NaN and -0.0 differs from 0.0
            if json.dumps(sa[key]) != json.dumps(sb[key]):
                print(f"solve {i}: {key} differs")
                return 1
    print(f"{len(a['solves'])} solves bitwise equal")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--limit", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (args.workload and args.out):
        parser.error("give --workload and --out, or --compare A B")
    from run import pin_threads
    pin_threads()
    solves = fingerprints(args.workload, args.seed, args.limit)
    Path(args.out).write_text(json.dumps({"workload": args.workload, "seed": args.seed, "solves": solves}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
