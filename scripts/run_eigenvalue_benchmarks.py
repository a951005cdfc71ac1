#!/usr/bin/env python3
"""Trace-minimization benchmark sweep.

Reproduces the standard runs: the Lehmer pencil at n=200 under both the
euclidean and objective-Hessian metrics, the tridiagonal pencil at n=2000,
and a five-generator battery checked against the dense pencil oracle.

    python3 scripts/run_eigenvalue_benchmarks.py            # battery at n=400
    python3 scripts/run_eigenvalue_benchmarks.py --full     # battery at n=2000
"""

from __future__ import annotations

import argparse

import numpy as np

from indefstiefel import (
    SolverConfig,
    extract_eigenpairs,
    make_point,
    pencil_oracle,
    signature,
    solve,
    test_matrix,
    trace_min_problem,
)


def run(m_mat, a, kp, km, metric="hessian", form=None, label=""):
    problem = trace_min_problem(m_mat, a, signature(kp, km), metric=metric)
    record = solve(problem, make_point(problem.spec), SolverConfig(rstop=1e-9, form=form))
    result = extract_eigenpairs(m_mat, problem.spec, record.x, kp, km)
    print(
        f"{label:34s} {record.status:9s} obj={record.obj:.9e} iter={record.n_iter:5d} "
        f"feas={record.feas:.2e} eig_rel={result.rel_err:.2e} cpu={record.cpu_s:6.2f}s"
    )
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--full", action="store_true",
                        help="run the generator battery at n=2000 instead of n=400")
    args = parser.parse_args()

    # Lehmer pencil, A with positive part 1..150 and negative part -50..-1
    n, p, m = 200, 150, 50
    lehmer = test_matrix("lehmer", n)
    a = np.diag(np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(m), 0.0, -1.0)]))
    print("== lehmer n=200, metric comparison ==")
    for kp, km in ((3, 2), (15, 5)):
        run(lehmer, a, kp, km, metric="hessian", form="full",
            label=f"lehmer (k,kp,km)=({kp + km},{kp},{km}) M_X=M")
    run(lehmer, a, 3, 2, metric="euclidean", label="lehmer (5,3,2) M_X=I")

    # tridiagonal pencil at n=2000, A = diag(1..1000, -1..-1000)
    print("== tridiag n=2000 ==")
    n = 2000
    a = np.diag(np.concatenate([np.arange(1.0, 1001.0), -np.arange(1.0, 1001.0)]))
    run(test_matrix("tridiag", n), a, 5, 5, label="tridiag (10,5,5)")

    # generator battery vs the dense pencil oracle
    n = 2000 if args.full else 400
    half = n // 2
    a = np.diag(np.concatenate([np.arange(1.0, half + 1.0), -np.arange(1.0, half + 1.0)]))
    print(f"== generator battery n={n} vs dense oracle ==")
    for name, param in (
        ("lehmer", None), ("gcdmat", None), ("moler", 0.5), ("minij", None), ("kms", 0.5)
    ):
        m_mat = test_matrix(name, n, param)
        record = run(m_mat, a, 5, 5, form="full", label=f"{name} (10,5,5)")
        _, _, f_star = pencil_oracle(m_mat, a, 5, 5)
        rel = abs(record.obj - f_star) / abs(f_star)
        print(f"{'':34s} oracle f*={f_star:.9e} rel_err={rel:.2e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
