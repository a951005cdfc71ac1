"""Time a benchmark workload's set-up and solves on two checkouts in one process, in alternation.

    python3 scripts/ab_time.py --workload lehmer200 --baseline ../parent --rounds 14
    python3 scripts/ab_time.py --workload tridiag2000 --baseline ../parent --limit 2

Imports the library from this checkout's ``src/`` (side B) and from the one
under BASELINE (side A), each under its own package name, and builds each
side's seed-0 instances from that side's own ``perfbench/workloads.py`` with
that side's factories, at one BLAS thread.  After one untimed pass per
side, each round runs on each side, the side that goes first alternating
from round to round, the set-up and then one full pass over every solve.
The set-up is the benchmark's, ``factory()`` plus ``start()``, built over
the instances in turn for SETUP_BUDGET_S seconds and at least once each.
Per round it prints each side's median solve time (p50) and median build
time, and their ratios B / A; last, the median of the per-round ratios.
Runs that alternate in one process share the machine's state, which two
separate benchmark runs minutes apart do not.  ``--limit N`` keeps the
first N solves.

Exits 1 unless every solve of every pass agrees between the sides in
status, iterations, f-evaluations, history and final X: the fingerprint of
``scripts/parity.py``, whose job list this script shares.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "scripts"))

from parity import first_difference, fingerprint, jobs  # noqa: E402

SETUP_BUDGET_S = 0.5  # build time per side per round


def load(root: Path, name: str):
    """root's ``src/indefstiefel`` imported as package ``name``, and the
    WORKLOADS of root's ``perfbench/workloads.py`` built on it."""
    src = root / "src" / "indefstiefel"
    spec = importlib.util.spec_from_file_location(name, src / "__init__.py",
                                                  submodule_search_locations=[str(src)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    # workloads.py imports the library by its own name: bind that name to
    # this side's package while the module loads
    previous = sys.modules.get("indefstiefel")
    sys.modules["indefstiefel"] = package
    try:
        spec = importlib.util.spec_from_file_location(f"{name}_workloads", root / "perfbench" / "workloads.py")
        workloads = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    finally:
        if previous is None:
            del sys.modules["indefstiefel"]
        else:
            sys.modules["indefstiefel"] = previous
    return package, workloads.WORKLOADS


def build(instances: list, budget: float) -> list[float]:
    """Build the instances in turn, for budget seconds and each at least
    once: the build times."""
    gc.collect()
    times = []
    t_end = time.perf_counter() + budget
    while len(times) < len(instances) or time.perf_counter() < t_end:
        instance = instances[len(times) % len(instances)]
        t0 = time.perf_counter()
        instance.start(instance.factory())
        times.append(time.perf_counter() - t0)
    return times


def one_pass(package, workload, side_jobs: list[tuple]) -> tuple[list[float], list[dict]]:
    """Solve each job once: the solve times and each solve's fingerprint."""
    gc.collect()
    times, results = [], []
    for problem, x0 in side_jobs:
        t0 = time.perf_counter()
        record = package.solve(problem, x0, workload.config)
        times.append(time.perf_counter() - t0)
        results.append(fingerprint(record))
    return times, results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--baseline", required=True, type=Path, metavar="PATH")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--limit", type=int)
    args = parser.parse_args(argv)
    if not (args.baseline / "src" / "indefstiefel").is_dir():
        parser.error(f"no library source under {args.baseline}")
    from run import pin_threads  # perfbench/ is on sys.path through parity
    pin_threads()

    sides, instances = {}, {}
    for label, root in (("A", args.baseline.resolve()), ("B", ROOT)):
        package, workloads = load(root, f"indefstiefel_{label}")
        workload = workloads[args.workload]
        instances[label] = workload.instances(0)
        sides[label] = (package, workload, list(jobs(instances[label], args.limit)))
    print(f"{args.workload}: A = {args.baseline.resolve()}, B = {ROOT}, {len(sides['B'][2])} solves per pass")

    for label, side in sides.items():  # first-pass costs (caches, allocator) go untimed
        build(instances[label], 0.0)
        one_pass(*side)
    ratios, setup_ratios, agree = [], [], True
    for r in range(args.rounds):
        order = ("A", "B") if r % 2 == 0 else ("B", "A")
        p50, builds, results = {}, {}, {}
        for label in order:
            builds[label] = build(instances[label], SETUP_BUDGET_S)
            times, results[label] = one_pass(*sides[label])
            p50[label] = statistics.median(times)
        difference = first_difference(results["A"], results["B"])
        if difference:
            agree = False
            print(f"round {r}: solves differ, {difference}")
        ratios.append(p50["B"] / p50["A"])
        print(f"round {r} ({order[0]} first): A p50 {p50['A'] * 1e3:.3f} ms, "
              f"B p50 {p50['B'] * 1e3:.3f} ms, B/A {ratios[-1]:.3f}")
        setup = {label: statistics.median(times) for label, times in builds.items()}
        setup_ratios.append(setup["B"] / setup["A"])
        print(f"round {r} set-up: A p50 {setup['A'] * 1e3:.3f} ms ({len(builds['A'])} builds), "
              f"B p50 {setup['B'] * 1e3:.3f} ms ({len(builds['B'])} builds), B/A {setup_ratios[-1]:.3f}")
    print(f"median B/A over {len(ratios)} rounds: {statistics.median(ratios):.3f}")
    print(f"median set-up B/A over {len(setup_ratios)} rounds: {statistics.median(setup_ratios):.3f}")
    print("every solve agrees in status, iterations, f-evaluations, history and X" if agree
          else "solves differ between the sides")
    return 0 if agree else 1


if __name__ == "__main__":
    sys.exit(main())
