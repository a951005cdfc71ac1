"""Fingerprint every solve of a benchmark workload, or compare fingerprints.

    python3 scripts/parity.py --workload tridiag2000 --seed 0 --out a.json
    python3 scripts/parity.py --compare a.json b.json
    python3 scripts/parity.py --compare a0.json b0.json a1.json b1.json

The first form solves each start of each instance of a workload from
``perfbench/workloads.py`` (one BLAS thread, library from ``src/``) and
writes, per solve: status, iterations, f-evaluations, the history without its
``time_s`` column, and the sha256 of the final X.  ``--limit N`` keeps the
first N solves.  It also prints the median and the largest number of minor
page faults per solve, read from the process's own ``resource.getrusage``
around each solve; the counts stay out of the file.  glibc serves a block
above its dynamic mmap threshold with a fresh mmap that is faulted in page by
page, and the threshold rises only when the process frees a larger mmapped
block, so a set-up that frees different blocks can move the faults, and the
time, of bitwise-equal solves.  The second form exits 0 when the solve lists
of two such files are bitwise equal.  Otherwise it names the first
difference, reports for each file the sorted per-solve iterations and
f-evaluations (median and range) and the largest final feasibility, then the
largest gap
|f_B - f_A| / |f0| between the final objectives, scaled by the start
objective f0 of A's solve (unscaled where f0 = 0), and exits 1.  The third
form takes several A B pairs, say one per seed: it reports each pair's first
difference and, when any pair differs, pools the solves of the A files and
of the B files, printing for iterations and f-evaluations the per-solve
median and mean and the sum per file, then each side's largest final
feasibility and the largest objective gap over all pairs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]


def jobs(instances, limit: int | None = None):
    """Yield (problem, x0) for each start of each of a workload's instances,
    the first limit; each instance's problem is built when reached."""
    count = 0
    for instance in instances:
        problem = instance.factory()
        for x0 in instance.starts(instance.start(problem)):
            if count == limit:
                return
            yield problem, x0
            count += 1


def fingerprint(record) -> dict:
    """A solve's status, iterations, f-evaluations, history without its
    time_s column, and the sha256 of its final X."""
    import numpy as np

    sha = hashlib.sha256(np.ascontiguousarray(record.x).tobytes()).hexdigest()
    return {"status": record.status, "iters": record.n_iter, "fevals": record.n_feval,
            "history": [list(row[:5]) for row in record.rows], "x_sha256": sha}


def fingerprints(workload_name: str, seed: int, limit: int | None) -> tuple[list[dict], list[int]]:
    """Each solve's fingerprint, and the minor page faults taken during it."""
    from indefstiefel import solve
    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name]
    solves, faults = [], []
    for problem, x0 in jobs(workload.instances(seed), limit):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        record = solve(problem, x0, workload.config)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        solves.append(fingerprint(record))
    return solves, faults


def first_difference(a: list[dict], b: list[dict]) -> str | None:
    if len(a) != len(b):
        return f"solve counts differ: {len(a)} vs {len(b)}"
    for i, (sa, sb) in enumerate(zip(a, b)):
        for key in sa:
            # compared as JSON text, so NaN equals NaN and -0.0 differs from 0.0
            if json.dumps(sa[key]) != json.dumps(sb[key]):
                return f"solve {i}: {key} differs"
    return None


def spread(values: list) -> str:
    values = sorted(values)
    return f"{values} median {statistics.median(values):g} range {values[0]}-{values[-1]}"


def distribution(path: str, solves: list[dict]) -> None:
    """Per-solve counts and the worst final feasibility of one file."""
    feas = max(s["history"][-1][4] for s in solves)
    print(f"{path}: iters {spread([s['iters'] for s in solves])}")
    print(f"{path}: fevals {spread([s['fevals'] for s in solves])}")
    print(f"{path}: largest final feasibility {feas:.3e}")


def objective_gap(a: list[dict], b: list[dict]) -> float:
    """Largest |f_B - f_A| / |f0| over paired solves' final objectives, f0
    the start objective of A's solve: final objectives near f* = 0 would make
    a gap relative to f_A read large for two runs that both reached f*."""
    gaps = []
    for sa, sb in zip(a, b):
        f0, fa, fb = sa["history"][0][1], sa["history"][-1][1], sb["history"][-1][1]
        gaps.append(abs(fb - fa) / (abs(f0) or 1.0))
    return max(gaps, default=0.0)


def pooled(side: str, files: list[tuple[str, dict]]) -> None:
    """Per-solve counts over all files of one side, and their sum per file."""
    solves = [s for _, data in files for s in data["solves"]]
    for key in ("iters", "fevals"):
        values = [s[key] for s in solves]
        sums = " ".join(f"{path} (seed {data['seed']}) {sum(s[key] for s in data['solves'])}"
                        for path, data in files)
        print(f"{side}: {key} median {statistics.median(values):g} mean {statistics.mean(values):.2f}"
              f" over {len(values)} solves; sums {sums}")
    print(f"{side}: largest final feasibility {max(s['history'][-1][4] for s in solves):.3e}")


def compare(paths: list[str]) -> int:
    pairs = [[(p, json.loads(Path(p).read_text())) for p in pair] for pair in zip(paths[::2], paths[1::2])]
    differ = False
    for (path_a, a), (path_b, b) in pairs:
        print(f"{path_a}: {a['workload']} seed {a['seed']}; {path_b}: {b['workload']} seed {b['seed']}")
        difference = first_difference(a["solves"], b["solves"])
        print(difference or f"{len(a['solves'])} solves bitwise equal")
        differ = differ or difference is not None
    if not differ:
        return 0
    if len(pairs) == 1:
        for path, data in pairs[0]:
            distribution(path, data["solves"])
    else:
        pooled("A", [pair[0] for pair in pairs])
        pooled("B", [pair[1] for pair in pairs])
    gap = max(objective_gap(a["solves"], b["solves"]) for (_, a), (_, b) in pairs)
    print(f"largest |f_B - f_A| / |f0| over final objectives: {gap:.3e}")
    return 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--limit", type=int)
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs="+", metavar="A B")
    args = parser.parse_args(argv)
    if args.compare:
        if len(args.compare) % 2:
            parser.error("--compare takes files in A B pairs")
        return compare(args.compare)
    if not (args.workload and args.out):
        parser.error("give --workload and --out, or --compare A B [A B ...]")
    from run import pin_threads
    pin_threads()
    solves, faults = fingerprints(args.workload, args.seed, args.limit)
    Path(args.out).write_text(json.dumps({"workload": args.workload, "seed": args.seed, "solves": solves}))
    print(f"{args.workload}: {len(faults)} solves, minor page faults per solve: "
          f"median {statistics.median(faults):g}, max {max(faults)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
