"""End-to-end acceptance battery.

One test per pinned benchmark, each with a frozen tolerance; a `pytest -v`
run therefore shows exactly one pass/fail line per benchmark.  In addition,
each test prints a PASS line carrying the measured numbers (visible with -s
or -rP) so results can be audited without rerunning.
"""

from __future__ import annotations

import time

import numpy as np
import pytest
import scipy.linalg

from indefstiefel import (
    CayleyCurve,
    ManifoldSpec,
    MetricSpec,
    SolverConfig,
    WellDefinednessError,
    extract_eigenpairs,
    feasibility,
    lrevp_initial_guess,
    lrevp_problem,
    make_point,
    matrix_equation_problem,
    pencil_oracle,
    procrustes_problem,
    signature,
    solve,
    trace_min_problem,
)
from indefstiefel import optimizer
from indefstiefel import test_matrix as gallery
from indefstiefel.linalg import solve_lyapunov, sym
from indefstiefel.manifold import metric_inner, riemannian_gradient

from conftest import (
    CURVES,
    DenseCayleyCurve,
    block_diag_orthogonal,
    perturbed_point,
    pointwise_metric,
    random_spd,
    random_spec,
    woodbury_curve,
)
from test_retraction import defect_instance, hyperbola
from theory import (
    gradient_check,
    project_tangent,
    random_tangent,
    s_matrix,
    second_order_defect,
    tangency_residual,
)


def report(label: str, **measured) -> None:
    parts = "  ".join(
        f"{key}={value:.3e}" if isinstance(value, float) else f"{key}={value}"
        for key, value in measured.items()
    )
    print(f"PASS  {label}: {parts}")


# --------------------------------------------------------------------------- 1


def test_lehmer_pencil_benchmark_two_splits():
    n, p, m = 200, 150, 50
    m_mat = gallery("lehmer", n)
    a = np.diag(np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(m), 0.0, -1.0)]))
    for kp, km, obj_ref, iter_cap in ((3, 2, 2.244e-4, 300), (15, 5, 9.084e-4, 400)):
        problem = trace_min_problem(m_mat, a, signature(kp, km), metric="hessian")
        record = solve(problem, make_point(problem.spec), SolverConfig(rstop=1e-9))
        result = extract_eigenpairs(problem, record.x)
        assert record.status == "converged"
        assert abs(record.obj - obj_ref) <= 5e-8
        assert record.feas <= 1e-10
        assert result.rel_err <= 1e-6
        assert record.n_iter <= iter_cap
        assert record.cpu_s <= 30.0
        report(
            f"lehmer n=200 split ({kp + km},{kp},{km})",
            obj=record.obj, feas=record.feas, eig_rel_err=result.rel_err,
            iters=record.n_iter, cpu_s=record.cpu_s,
        )


# --------------------------------------------------------------------------- 2


def test_objective_hessian_metric_speedup():
    n, p, m = 200, 150, 50
    m_mat = gallery("lehmer", n)
    a = np.diag(np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(m), 0.0, -1.0)]))
    j = signature(3, 2)
    iters = {}
    for metric in ("euclidean", "hessian"):
        problem = trace_min_problem(m_mat, a, j, metric=metric)
        record = solve(problem, make_point(problem.spec), SolverConfig(rstop=1e-9))
        assert record.status == "converged", metric
        iters[metric] = record.n_iter
    assert iters["euclidean"] > 5000
    assert iters["hessian"] < 300
    assert iters["euclidean"] >= 15 * iters["hessian"]
    report(
        "objective-hessian metric speedup",
        euclidean_iters=iters["euclidean"], hessian_iters=iters["hessian"],
        ratio=iters["euclidean"] / iters["hessian"],
    )


# --------------------------------------------------------------------------- 3


def test_tridiagonal_benchmark_n2000_and_generator_battery():
    # large instance: tridiag(-1,2,-1) with A = diag(1..1000, -1..-1000)
    n = 2000
    m_mat = gallery("tridiag", n)
    a = np.diag(np.concatenate([np.arange(1.0, 1001.0), -np.arange(1.0, 1001.0)]))
    problem = trace_min_problem(m_mat, a, signature(5, 5), metric="hessian")
    record = solve(problem, make_point(problem.spec), SolverConfig(rstop=1e-9))
    assert record.status == "converged"
    assert abs(record.obj - 2.039e-6) <= 5e-10
    assert record.n_iter <= 120
    assert record.cpu_s <= 120.0
    report(
        "tridiag n=2000 split (10,5,5)",
        obj=record.obj, iters=record.n_iter, cpu_s=record.cpu_s,
    )

    # remaining generators at n=400, checked against the dense pencil oracle
    n = 400
    a = np.diag(np.concatenate([np.arange(1.0, 201.0), -np.arange(1.0, 201.0)]))
    for name, param in (
        ("lehmer", None), ("gcdmat", None), ("moler", 0.5), ("minij", None), ("kms", 0.5)
    ):
        m_mat = gallery(name, n, param)
        problem = trace_min_problem(m_mat, a, signature(5, 5), metric="hessian")
        record = solve(problem, make_point(problem.spec), SolverConfig(rstop=1e-9))
        _, _, f_star = pencil_oracle(m_mat, a, 5, 5)
        assert record.status == "converged", name
        rel = abs(record.obj - f_star) / abs(f_star)
        assert rel <= 1e-6, name
        report(f"generator battery n=400 ({name})", obj=record.obj, oracle_rel_err=rel)


# --------------------------------------------------------------------------- 4


def test_random_pencils_match_dense_oracle():
    rng = np.random.default_rng(2024)
    worst_obj, worst_eig = 0.0, 0.0
    for _ in range(50):
        n = int(rng.integers(6, 61))
        p = int(rng.integers(1, n))
        m = n - p
        kp = int(rng.integers(0, min(p, 4) + 1))
        km = int(rng.integers(0, min(m, 4) + 1))
        if kp + km == 0:
            kp = 1
        spec = random_spec(rng, n, p, kp, km)
        m_mat = random_spd(rng, n)
        problem = trace_min_problem(m_mat, spec.A, spec.J, metric="hessian")
        x0 = perturbed_point(problem.spec, rng, scale=0.5)
        record = solve(problem, x0, SolverConfig(rstop=1e-9))
        lam_plus, lam_minus, f_star = pencil_oracle(m_mat, spec.A, kp, km)
        assert record.status == "converged"
        rel = abs(record.obj - f_star) / abs(f_star)
        assert rel <= 1e-6
        worst_obj = max(worst_obj, rel)
        result = extract_eigenpairs(problem, record.x)
        for found, exact in ((result.lambda_plus, lam_plus), (result.lambda_minus, lam_minus)):
            if exact.size:
                eig_rel = float(np.max(np.abs(found - exact) / np.abs(exact)))
                assert eig_rel <= 1e-5
                worst_eig = max(worst_eig, eig_rel)
    report(
        "50 random pencils vs dense oracle",
        worst_obj_rel=worst_obj, worst_eig_rel=worst_eig,
    )


# --------------------------------------------------------------------------- 5


def test_retraction_property_suite():
    rng = np.random.default_rng(11)

    # R(0) = X to 1e-13: the dense oracle, the library's width-based choice
    # and its Woodbury kernel
    worst_r1 = 0.0
    for curve in (DenseCayleyCurve, CayleyCurve, woodbury_curve):
        spec = random_spec(rng, 14, 9, 2, 2)
        x = make_point(spec)
        z = random_tangent(spec, x, rng)
        r1 = float(np.linalg.norm(curve(spec, x, z).at(0.0) - x))
        assert r1 <= 1e-13
        worst_r1 = max(worst_r1, r1)

    # second-order slope decay: central differences shrink like h^2, so each
    # tenfold h reduction shrinks the residual ~100x (direction scaled well
    # above the rounding floor)
    spec = random_spec(rng, 16, 10, 2, 1)
    x = make_point(spec)
    z = random_tangent(spec, x, rng)
    z *= 3.0 / np.linalg.norm(z)
    curve = CayleyCurve(spec, x, z)
    errs = []
    for h in (1e-3, 1e-4, 1e-5):
        slope = (curve.at(h) - curve.at(-h)) / (2 * h)
        errs.append(float(np.linalg.norm(slope - z)))
    assert errs[0] / errs[1] >= 30.0
    assert errs[1] / errs[2] >= 30.0

    # 1000 random draws: feasibility preserved and the two kernels agree
    worst_feas, worst_gap = 0.0, 0.0
    for trial in range(1000):
        n = int(rng.integers(4, 21))
        p = int(rng.integers(1, n))
        kp = int(rng.integers(0, min(p, 3) + 1))
        km = int(rng.integers(0, min(n - p, 3) + 1))
        if kp + km == 0:
            kp = 1
        spec = random_spec(rng, n, p, kp, km, diagonal=trial % 2 == 0)
        x = make_point(spec)
        z = random_tangent(spec, x, rng)
        t = float(rng.uniform(0.05, 1.0))
        results = {}
        for form, curve in CURVES.items():
            try:
                results[form] = curve(spec, x, z).at(t)
            except WellDefinednessError:
                results = None
                break
        if results is None:
            continue  # draw beyond the definedness radius: both kernels refused
        for y in results.values():
            worst_feas = max(worst_feas, feasibility(spec, y))
        base = results["dense"]
        scale = 1.0 + np.linalg.norm(base)
        worst_gap = max(worst_gap, np.linalg.norm(results["woodbury"] - base) / scale)
    assert worst_feas <= 1e-8
    assert worst_gap <= 1e-9

    # frozen 2x2 instance on the hyperbola: S_{X,Z} A is exactly the flip
    # matrix, so cay((t/2) S A) breaks down at t = 2
    spec2, x2, z2 = hyperbola()
    sa = s_matrix(spec2, x2, z2) @ spec2.A
    assert np.array_equal(sa, np.array([[0.0, 1.0], [1.0, 0.0]]))
    for curve in CURVES.values():
        with pytest.raises(WellDefinednessError):
            curve(spec2, x2, z2).at(2.0)

    # frozen 3x3 instance: the curve's second-order defect in closed form
    spec3, x3, z3 = defect_instance()
    defect = second_order_defect(spec3, x3, z3)
    expected = np.array([[2.0, -2.0 / 3.0], [-3.0 / 2.0, 1.0 / 3.0]])
    assert np.allclose(defect, expected, atol=1e-12)

    report(
        "retraction property suite",
        worst_r1=worst_r1, slope_ratio=errs[0] / errs[1],
        worst_feas=worst_feas, worst_cross_form=worst_gap,
    )


# --------------------------------------------------------------------------- 6


def test_projection_and_gradient_suite():
    rng = np.random.default_rng(5)
    start = time.perf_counter()
    worst = dict(idem=0.0, tang=0.0, orth=0.0, lyap=0.0, dual=0.0, fd=0.0)
    for trial in range(200):
        n = int(rng.integers(4, 41))
        p = int(rng.integers(1, n))
        kp = int(rng.integers(0, min(p, 3) + 1))
        km = int(rng.integers(0, min(n - p, 3) + 1))
        if kp + km == 0:
            kp = 1
        spec = random_spec(rng, n, p, kp, km)
        x = perturbed_point(spec, rng, scale=0.3)
        k = kp + km
        if trial % 3 == 0:
            met = MetricSpec.euclidean()
        elif trial % 3 == 1:
            met = MetricSpec.weighted(random_spd(rng, n))
        else:
            met = pointwise_metric(lambda xx: np.eye(len(xx)) + xx @ xx.T)

        y = rng.standard_normal((n, k))
        z = project_tangent(spec, met, x, y)
        scale = 1.0 + np.linalg.norm(y)
        worst["idem"] = max(
            worst["idem"],
            np.linalg.norm(project_tangent(spec, met, x, z) - z) / scale,
        )
        worst["tang"] = max(worst["tang"], tangency_residual(spec, x, z) / scale)
        # the normal part is g-orthogonal to every tangent vector
        w = random_tangent(spec, x, rng)
        worst["orth"] = max(
            worst["orth"],
            abs(metric_inner(met, x, y - z, w))
            / (scale * (1.0 + np.linalg.norm(w))),
        )

        # the dense Lyapunov solve behind the projection, re-done explicitly
        ax = spec.A @ x
        s = sym(ax.T @ met.apply_inverse(x, ax))
        rhs = sym(2.0 * x.T @ (spec.A @ y))
        u = solve_lyapunov(s, rhs)
        worst["lyap"] = max(
            worst["lyap"],
            np.linalg.norm(s @ u + u @ s - rhs) / (1.0 + np.linalg.norm(rhs)),
        )

        # gradient duality: g_X(grad f, W) = <egrad, W> for all tangent W
        m_obj = random_spd(rng, n)
        problem = trace_min_problem(m_obj, spec.A, spec.J, metric="hessian")
        egrad = problem.egrad(x)
        grad = riemannian_gradient(spec, problem.metric, x, problem.metric_grad(x))
        dual_gap = abs(
            metric_inner(problem.metric, x, grad, w) - float(np.vdot(egrad, w))
        ) / (1.0 + np.linalg.norm(egrad) * np.linalg.norm(w))
        worst["dual"] = max(worst["dual"], dual_gap)
        if trial % 10 == 0:
            worst["fd"] = max(
                worst["fd"], gradient_check(problem, x, 1e-6, n_dirs=3, rng=rng)
            )
    elapsed = time.perf_counter() - start
    assert worst["idem"] <= 1e-9
    assert worst["tang"] <= 1e-8
    assert worst["orth"] <= 1e-8
    assert worst["lyap"] <= 1e-12
    assert worst["dual"] <= 1e-10
    assert worst["fd"] <= 1e-4
    assert elapsed <= 60.0
    report("projection/gradient suite (200 draws)", elapsed_s=elapsed, **worst)


# --------------------------------------------------------------------------- 7


def test_matrix_equation_recovery_replica():
    n, p, k = 400, 300, 10
    for name, param in (("lehmer", None), ("kms", 0.5)):
        rng = np.random.default_rng(0)
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        d = np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(n - p), 0.0, -1.0)])
        a = sym((basis * d) @ basis.T)
        g = gallery(name, n, param)
        spec = ManifoldSpec(a, np.eye(k))
        x_star = make_point(spec, pos_indices=np.arange(k))
        problem = matrix_equation_problem(g, g @ x_star, spec)
        x0 = make_point(spec, pos_indices=np.arange(p - k, p))
        record = solve(problem, x0, SolverConfig(rstop=1e-9))
        diff = float(np.linalg.norm(record.x - x_star))
        assert record.status == "converged", name
        assert record.obj <= 1e-10
        assert diff <= 1e-6
        assert record.n_iter <= 50
        assert record.cpu_s <= 900.0
        report(
            f"matrix-equation recovery n=400 ({name})",
            obj=record.obj, diff=diff, iters=record.n_iter, cpu_s=record.cpu_s,
        )


# --------------------------------------------------------------------------- 8


def test_procrustes_consistent_recovery_over_seeds():
    l = n = 200
    p, m = 150, 50
    j = signature(p, m)
    worst_obj, worst_feas = 0.0, 0.0
    for seed in range(10):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal((l, n))
        v = block_diag_orthogonal(p, m, rng)
        problem = procrustes_problem(g, g @ v, j)
        record = solve(problem, np.eye(n), SolverConfig(rstop=1e-6))
        assert record.status == "converged", seed
        assert record.obj <= 1e-7
        assert record.feas <= 1e-10
        worst_obj = max(worst_obj, record.obj)
        worst_feas = max(worst_feas, record.feas)
    report(
        "procrustes consistent recovery (10 seeds)",
        worst_obj=worst_obj, worst_feas=worst_feas,
    )


# ----------------------------------------------------- excluded-scale smokes


def test_lrevp_pipeline_smoke():
    rng = np.random.default_rng(7)
    p, k = 200, 5
    k_mat = random_spd(rng, p)
    m_mat = random_spd(rng, p)
    problem = lrevp_problem(k_mat, m_mat, k)
    record = solve(problem, lrevp_initial_guess(p, k, rng), SolverConfig(rstop=1e-9))
    omegas = np.sort(np.sqrt(scipy.linalg.eigvals(k_mat @ m_mat).real))[:k]
    h = scipy.linalg.block_diag(k_mat, m_mat)
    g = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(p))
    _, _, f_star = pencil_oracle(h, g, k, 0)
    assert record.status == "converged"
    rel_struct = abs(record.obj - omegas.sum()) / omegas.sum()
    rel_oracle = abs(record.obj - f_star) / abs(f_star)
    assert rel_struct <= 1e-8
    assert rel_oracle <= 1e-8
    report(
        "lrevp pipeline smoke p=200",
        obj=record.obj, rel_vs_frequencies=rel_struct, rel_vs_oracle=rel_oracle,
        iters=record.n_iter,
    )


def test_woodbury_kernel_not_slower_than_dense_at_scale(monkeypatch):
    # the library's kernel at (n, k) = (1000, 10) against the dense oracle
    n = 1000
    m_mat = gallery("tridiag", n)
    a = np.diag(np.concatenate([np.arange(1.0, 501.0), -np.arange(1.0, 501.0)]))
    problem = trace_min_problem(m_mat, a, signature(5, 5), metric="hessian")
    x0 = make_point(problem.spec)
    config = SolverConfig(rstop=0.0, max_iter=15)
    with monkeypatch.context() as mp:
        mp.setattr(optimizer, "CayleyCurve", DenseCayleyCurve)
        dense = solve(problem, x0, config)
    woodbury = solve(problem, x0, config)
    assert dense.n_iter == woodbury.n_iter == 15
    assert woodbury.cpu_s <= dense.cpu_s
    report(
        "woodbury vs dense kernel wall time n=1000 k=10",
        woodbury_s=woodbury.cpu_s, dense_s=dense.cpu_s, ratio=dense.cpu_s / woodbury.cpu_s,
    )
