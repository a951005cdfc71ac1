"""Benchmark problem factories and the dense pencil oracle."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from indefstiefel import (
    ManifoldSpec,
    MetricSpec,
    SolverConfig,
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
from indefstiefel import test_matrix as gallery
from indefstiefel.linalg import SymOperator, random_rotation
from indefstiefel.manifold import riemannian_gradient

from conftest import block_diag_orthogonal, perturbed_point, random_indefinite, random_spd
from theory import gradient_check, project_tangent


# ---------------------------------------------------------------- pencil oracle


def test_pencil_oracle_diagonal_example():
    # pencil M x = lambda A x with M = diag(1, 3), A = diag(1, -1):
    # eigenvalues {1, -3}; one from each sign class gives f* = 1 - (-3) = 4
    lam_plus, lam_minus, f_star = pencil_oracle(np.diag([1.0, 3.0]), np.diag([1.0, -1.0]), 1, 1)
    assert np.allclose(lam_plus, [1.0])
    assert np.allclose(lam_minus, [-3.0])
    assert f_star == pytest.approx(4.0)


def test_pencil_oracle_orders_eigenvalues():
    m = np.diag([2.0, 8.0, 18.0, 5.0, 20.0])
    a = np.diag([1.0, 2.0, 3.0, -1.0, -4.0])
    # pencil eigenvalues: 2, 4, 6 positive; -5, -5 negative
    lam_plus, lam_minus, f_star = pencil_oracle(m, a, 2, 1)
    assert np.allclose(lam_plus, [2.0, 4.0])  # ascending
    assert np.allclose(lam_minus, [-5.0])     # descending from zero
    assert f_star == pytest.approx(2 + 4 + 5)


def test_pencil_oracle_spd_reduces_to_generalized_eigh():
    rng = np.random.default_rng(0)
    m = random_spd(rng, 12)
    a = random_spd(rng, 12)
    k = 4
    lam_plus, lam_minus, f_star = pencil_oracle(m, a, k, 0)
    dense = np.sort(scipy.linalg.eigh(m, a, eigvals_only=True))
    assert lam_minus.size == 0
    assert np.allclose(lam_plus, dense[:k], rtol=1e-10)
    assert f_star == pytest.approx(dense[:k].sum(), rel=1e-12)


def test_pencil_oracle_rejects_near_singular_a():
    m = np.eye(3)
    a = np.diag([1.0, -1.0, 1e-14])
    with pytest.raises(ValueError, match="sign split is ambiguous"):
        pencil_oracle(m, a, 1, 1)


@pytest.mark.parametrize("m, k_p, k_m, message", [
    (np.diag([1.0, -1.0, 2.0]), 1, 1, "M is not positive definite"),
    (np.eye(3), 3, 1, r"pencil has 2 positive / 1 negative eigenvalues; requested \(3, 1\)"),
    (np.eye(3), 1, 2, r"pencil has 2 positive / 1 negative eigenvalues; requested \(1, 2\)"),
], ids=["m_indefinite", "too_many_positive", "too_many_negative"])
def test_pencil_oracle_rejects_an_indefinite_m_and_an_overlong_request(m, k_p, k_m, message):
    with pytest.raises(ValueError, match=message):
        pencil_oracle(m, np.diag([1.0, -1.0, 2.0]), k_p, k_m)


# ----------------------------------------------------------- trace minimization


def test_trace_min_problem_cost_and_gradient():
    rng = np.random.default_rng(1)
    m = random_spd(rng, 6)
    a = np.diag([1.0, 2.0, 3.0, -1.0, -2.0, -3.0])
    problem = trace_min_problem(m, a, signature(2, 1))
    x = make_point(problem.spec)
    assert problem.f(x) == pytest.approx(np.trace(x.T @ m @ x), rel=1e-12)
    assert np.allclose(problem.egrad(x), 2 * m @ x)
    assert np.array_equal(problem.pencil_m.dense, m)


@pytest.mark.parametrize("factory", ["tracemin", "procrustes", "matexeq", "matexeq_tall"])
def test_objective_and_euclidean_gradient_are_exact(factory):
    # the symmetric G of "matexeq" cannot tell G^T r from G r; the 8 x 6 G can
    rng = np.random.default_rng(3)
    n = 6
    if factory == "tracemin":
        m = random_spd(rng, n)
        problem = trace_min_problem(m, np.diag([1.0, 2.0, 3.0, -1.0, -2.0, -3.0]), signature(2, 1))
        x = make_point(problem.spec)

        def f(x):
            return float(np.vdot(x, m @ x))

        def egrad(x):
            return 2.0 * (m @ x)
    else:
        if factory == "procrustes":
            g = rng.standard_normal((n, n))
            b = rng.standard_normal((n, n))
            problem = procrustes_problem(g, b, signature(4, 2))
            x = np.eye(n)
        else:
            g = random_spd(rng, n) if factory == "matexeq" else rng.standard_normal((8, n))
            spec = ManifoldSpec(np.diag([1.0, 2.0, 3.0, -1.0, -2.0, -3.0]), np.eye(2))
            b = rng.standard_normal((g.shape[0], 2))
            problem = matrix_equation_problem(g, b, spec)
            x = make_point(spec)

        def f(x):
            r = g @ x - b
            return float(np.vdot(r, r))

        def egrad(x):
            return 2.0 * (g.T @ (g @ x - b))
    for _ in range(2):
        assert problem.f(x) == f(x)
        assert np.array_equal(problem.egrad(x), egrad(x))
        x[0, 0] += 1.0  # an in-place edit is a new point


def closed_form_case(factory, metric="hessian"):
    """(problem, x): each objective at a feasible point that is not stationary;
    matexeq has a tall 8 x 6 G, as in the exact-value test above, and a B it
    cannot fit, so G X_ls != B."""
    rng = np.random.default_rng(21)
    if factory == "tracemin":
        a = np.diag(np.concatenate([np.arange(1.0, 7.0), -np.arange(1.0, 5.0)]))
        problem = trace_min_problem(random_spd(rng, 10), a, signature(2, 1), metric)
    elif factory == "lrevp":
        problem = lrevp_problem(random_spd(rng, 6), random_spd(rng, 6), 2, metric)
    elif factory == "procrustes":
        n = 6
        g = rng.standard_normal((n, n))
        problem = procrustes_problem(g, g @ block_diag_orthogonal(4, 2, rng), signature(4, 2), metric)
    else:
        g = rng.standard_normal((8, 6))
        spec = ManifoldSpec(np.diag([1.0, 2.0, 3.0, -1.0, -2.0, -3.0]), np.eye(2))
        problem = matrix_equation_problem(g, rng.standard_normal((8, 2)), spec, metric)
    return problem, perturbed_point(problem.spec, rng, scale=0.4)


@pytest.mark.parametrize("factory", ["tracemin", "lrevp", "matexeq", "procrustes"])
def test_closed_form_gradient_matches_metric_solve(factory):
    problem, x = closed_form_case(factory)
    spec, metric = problem.spec, problem.metric
    grad = riemannian_gradient(spec, metric, x, problem.metric_grad(x))
    oracle = project_tangent(spec, metric, x, metric.apply_inverse(x, problem.egrad(x)))
    assert np.linalg.norm(oracle) > 1e-2
    assert np.linalg.norm(grad - oracle) <= 1e-10 * np.linalg.norm(oracle)


@pytest.mark.parametrize("factory", ["matexeq", "procrustes"])
def test_least_squares_solution_computed_once_on_first_gradient(monkeypatch, factory):
    calls = []
    original = MetricSpec.apply_inverse

    def counted(self, x, y):
        calls.append(1)
        return original(self, x, y)

    monkeypatch.setattr(MetricSpec, "apply_inverse", counted)
    problem, x = closed_form_case(factory)
    assert calls == []
    first = problem.metric_grad(x)
    assert len(calls) == 1
    assert np.array_equal(problem.metric_grad(x), first)
    assert len(calls) == 1


@pytest.mark.parametrize("factory", ["tracemin", "procrustes"])
def test_hessian_metric_objective_keeps_no_product(factory):
    # under either metric f keeps neither its product nor a copy of X
    n, kept = 60, {}
    for metric in ("hessian", "euclidean"):
        rng = np.random.default_rng(22)
        if factory == "tracemin":
            a = np.diag(np.concatenate([np.arange(1.0, 41.0), -np.arange(1.0, 21.0)]))
            problem = trace_min_problem(random_spd(rng, n), a, signature(4, 4), metric)
            x = make_point(problem.spec)
        else:
            g, b = rng.standard_normal((2, n, n))
            problem = procrustes_problem(g, b, signature(40, 20), metric)
            x = np.eye(n)
        problem.f(x)  # numpy's first-call allocations stay out of the count
        problem.egrad(x)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            problem.f(x)
            kept[metric] = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert kept["hessian"] < x.nbytes // 2
    assert kept["euclidean"] < x.nbytes // 2


@pytest.mark.parametrize("build", [
    lambda metric: trace_min_problem(np.eye(2), np.diag([1.0, -1.0]), signature(1, 0), metric=metric),
    lambda metric: matrix_equation_problem(
        np.eye(2), np.zeros((2, 1)), ManifoldSpec(np.diag([1.0, -1.0]), signature(1, 0)), metric=metric
    ),
], ids=["tracemin", "matexeq"])
def test_unknown_metric_choice_rejected(build):
    with pytest.raises(ValueError, match="unknown metric choice 'riemann'"):
        build("riemann")


def test_trace_min_hessian_metric_requires_spd():
    a = np.diag([1.0, -1.0])
    indefinite = np.diag([1.0, -2.0])
    with pytest.raises(ValueError):
        trace_min_problem(indefinite, a, np.array([[1.0]]), metric="hessian")


@pytest.mark.parametrize("metric", ["hessian", "euclidean"])
def test_trace_min_rejects_indefinite_banded_m(metric):
    # a tridiagonal M of order 200 is held banded, so its LDL^T (dpttrf)
    # is the one that must refuse it
    n = 200
    m = gallery("tridiag", n) - np.eye(n)
    assert SymOperator(m).banded
    a = np.diag(np.concatenate([np.arange(1.0, 101.0), -np.arange(1.0, 101.0)]))
    with pytest.raises(ValueError, match="not positive definite"):
        trace_min_problem(m, a, signature(2, 1), metric=metric)
    with pytest.raises(ValueError, match="not positive definite"):
        MetricSpec(m)


def test_trace_min_rejects_m_of_another_order():
    a = np.diag([1.0, 2.0, -1.0, -2.0])
    with pytest.raises(ValueError, match="M is"):
        trace_min_problem(np.eye(5), a, signature(1, 1))


def test_banded_pencil_is_never_read_as_a_dense_array():
    # a diagonal A and a tridiagonal M are held banded: set-up, the start,
    # the solve and the eigenpairs go through their operators alone, and
    # give the bits of a problem whose n x n arrays were built first
    n = 200
    m = gallery("tridiag", n)
    a = np.diag(np.concatenate([np.arange(1.0, 101.0), -np.arange(1.0, 101.0)]))
    reference = trace_min_problem(m, a, signature(3, 2))
    assert np.array_equal(reference.spec.A, a) and np.array_equal(reference.pencil_m.dense, m)
    problem = trace_min_problem(m, a, signature(3, 2))
    config = SolverConfig(max_iter=40)
    runs = []
    for p in (reference, problem):
        record = solve(p, make_point(p.spec), config)
        runs.append((record.x, extract_eigenpairs(p, record.x).v))
    assert record.n_iter > 0
    for op in (problem.spec._a, problem.pencil_m):
        assert op.banded and "dense" not in vars(op)
    for got, want in zip(runs[1], runs[0]):
        assert got.tobytes() == want.tobytes()


def test_trace_min_objective_bounded_by_oracle():
    rng = np.random.default_rng(2)
    m = random_spd(rng, 8)
    a = np.diag(np.concatenate([np.arange(1.0, 6.0), -np.arange(1.0, 4.0)]))
    problem = trace_min_problem(m, a, signature(2, 2))
    _, _, f_star = pencil_oracle(m, a, 2, 2)
    for _ in range(10):
        x = perturbed_point(problem.spec, rng, scale=1.0)
        assert problem.f(x) >= f_star - 1e-10


def test_extract_eigenpairs_at_oracle_minimizer():
    # diagonal pencil: the minimizer is known in closed form
    m = np.diag([2.0, 8.0, 18.0, 5.0, 20.0])
    a = np.diag([1.0, 2.0, 3.0, -1.0, -4.0])
    kp, km = 2, 1
    problem = trace_min_problem(m, a, signature(kp, km))
    x_star = make_point(problem.spec, pos_indices=[0, 1], neg_indices=[0])
    result = extract_eigenpairs(problem, x_star)
    assert np.allclose(result.lambda_plus, [2.0, 4.0], rtol=1e-10)
    assert np.allclose(result.lambda_minus, [-5.0], rtol=1e-10)
    assert result.rel_err <= 1e-10
    assert result.v.shape == (5, 3)
    # columns are genuine eigenvectors: M v = lambda A v
    lams = np.concatenate([result.lambda_plus, result.lambda_minus])
    assert np.allclose(m @ result.v, (a @ result.v) * lams, atol=1e-8)


def test_extract_eigenpairs_rejects_rotated_j_and_least_squares():
    # the block split reads J = diag(I_kp, -I_km); a rotated signature has the
    # same inertia and the same minimum value, but mixes the blocks
    m = np.diag([2.0, 8.0, 18.0, 5.0, 20.0])
    a = np.diag([1.0, 2.0, 3.0, -1.0, -4.0])
    q = random_rotation(3, np.random.default_rng(4))
    problem = trace_min_problem(m, a, q @ signature(2, 1) @ q.T)
    with pytest.raises(ValueError, match="diag"):
        extract_eigenpairs(problem, make_point(problem.spec))
    spec = ManifoldSpec(a, np.eye(2))
    least_squares = matrix_equation_problem(m, m @ make_point(spec), spec)
    with pytest.raises(ValueError, match="pencil"):
        extract_eigenpairs(least_squares, make_point(spec))


def test_solver_recovers_pencil_eigenvalues():
    rng = np.random.default_rng(3)
    n, p = 14, 8
    a = random_indefinite(rng, n, p)
    m = random_spd(rng, n)
    kp, km = 2, 2
    problem = trace_min_problem(m, a, signature(kp, km))
    record = solve(problem, make_point(problem.spec), SolverConfig(max_iter=5000))
    lam_plus, lam_minus, f_star = pencil_oracle(m, a, kp, km)
    assert record.status == "converged"
    assert record.obj == pytest.approx(f_star, rel=1e-8)
    result = extract_eigenpairs(problem, record.x)
    assert np.allclose(result.lambda_plus, lam_plus, rtol=1e-7)
    assert np.allclose(result.lambda_minus, lam_minus, rtol=1e-7)


# --------------------------------------------------------------------- lrevp


def test_lrevp_identity_case():
    problem = lrevp_problem(np.eye(4), np.eye(4), 1)
    x0 = lrevp_initial_guess(4, 1, np.random.default_rng(4))
    assert feasibility(problem.spec, x0) <= 1e-12
    record = solve(problem, x0, SolverConfig(max_iter=500))
    assert record.status == "converged"
    assert record.obj == pytest.approx(1.0, abs=1e-10)


def test_lrevp_diagonal_case_matches_structured_oracle():
    k_mat = np.diag([1.0, 4.0])
    m_mat = np.diag([9.0, 1.0])
    problem = lrevp_problem(k_mat, m_mat, 1)
    x0 = lrevp_initial_guess(2, 1, np.random.default_rng(5))
    record = solve(problem, x0, SolverConfig(max_iter=500))
    # eig(K M) = {9, 4}; the smallest square root is 2
    assert record.status == "converged"
    assert record.obj == pytest.approx(2.0, abs=1e-10)
    # cross-check via the dense pencil oracle on (H, G)
    h = scipy.linalg.block_diag(k_mat, m_mat)
    g = np.kron([[0.0, 1.0], [1.0, 0.0]], np.eye(2))
    assert np.array_equal(problem.pencil_m.dense, h) and np.array_equal(problem.spec.A, g)
    _, _, f_star = pencil_oracle(h, g, 1, 0)
    assert record.obj == pytest.approx(f_star, rel=1e-12)


def test_lrevp_random_case_recovers_frequencies():
    rng = np.random.default_rng(6)
    p, k = 20, 3
    k_mat = random_spd(rng, p)
    m_mat = random_spd(rng, p)
    problem = lrevp_problem(k_mat, m_mat, k)
    record = solve(problem, lrevp_initial_guess(p, k, rng), SolverConfig(max_iter=5000))
    omegas = np.sort(np.sqrt(scipy.linalg.eigvals(k_mat @ m_mat).real))[:k]
    assert record.status == "converged"
    assert record.obj == pytest.approx(omegas.sum(), rel=1e-9)


@pytest.mark.parametrize("metric", ["hessian", "euclidean"])
def test_lrevp_rejects_indefinite_k(metric):
    # an indefinite H = diag(K, M) makes the trace unbounded below
    with pytest.raises(ValueError, match="positive definite"):
        lrevp_problem(np.diag([1.0, -2.0, 3.0]), np.eye(3), 1, metric=metric)


def test_lrevp_validates_shapes():
    with pytest.raises(ValueError):
        lrevp_problem(np.eye(3), np.eye(4), 1)
    with pytest.raises(ValueError, match="K and M must be square"):
        lrevp_problem(np.eye(3, 4), np.eye(3), 1)
    with pytest.raises(ValueError):
        lrevp_problem(np.eye(3), np.eye(3), 4)


# ----------------------------------------------------------------- procrustes


def test_procrustes_exact_fit_objective():
    rng = np.random.default_rng(7)
    n, p = 8, 5
    j = signature(p, n - p)
    g = rng.standard_normal((10, n))
    v = block_diag_orthogonal(p, n - p, rng)
    b = g @ v
    problem = procrustes_problem(g, b, j)
    assert feasibility(problem.spec, v) <= 1e-12  # block-orthogonal V is J-orthogonal
    assert problem.f(v) == pytest.approx(0.0, abs=1e-20)
    assert np.allclose(problem.egrad(v), np.zeros((n, n)), atol=1e-12)


def test_procrustes_desk_replica_converges_to_consistent_fit():
    rng = np.random.default_rng(8)
    l = n = 50
    p = 35
    j = signature(p, n - p)
    g = rng.standard_normal((l, n))
    v = block_diag_orthogonal(p, n - p, rng)
    problem = procrustes_problem(g, g @ v, j)
    record = solve(problem, np.eye(n), SolverConfig(rstop=1e-6, max_iter=5000))
    assert record.status == "converged"
    assert record.obj <= 1e-8
    assert np.linalg.norm(record.x.T @ j @ record.x - j) <= 1e-10


# ------------------------------------------------------------- matrix equation


def test_matrix_equation_consistent_instance_has_zero_objective():
    rng = np.random.default_rng(10)
    n, k = 12, 3
    a = random_indefinite(rng, n, 8)
    g = random_spd(rng, n)
    spec = ManifoldSpec(a, np.eye(k))
    x_star = make_point(spec)
    problem = matrix_equation_problem(g, g @ x_star, spec)
    assert problem.f(x_star) <= 1e-18
    assert np.allclose(problem.egrad(x_star), 0.0, atol=1e-12)
    assert matrix_equation_problem(g, g @ x_star + 0.3, spec).f(x_star) > 0.1


def test_matrix_equation_recovers_with_tall_g():
    # G is l x n with l > n: least squares on a consistent overdetermined system
    rng = np.random.default_rng(9)
    n, p, k, l = 12, 8, 3, 20
    spec = ManifoldSpec(random_indefinite(rng, n, p), np.eye(k))
    g = rng.standard_normal((l, n))
    x_star = make_point(spec, pos_indices=np.arange(k))
    problem = matrix_equation_problem(g, g @ x_star, spec)
    x0 = make_point(spec, pos_indices=np.arange(p - k, p))
    record = solve(problem, x0, SolverConfig(max_iter=2000))
    assert record.status == "converged"
    assert np.linalg.norm(record.x - x_star) <= 1e-6


def test_matrix_equation_validates_shapes():
    spec = ManifoldSpec(np.diag([1.0, 2.0, -1.0]), np.eye(1))
    with pytest.raises(ValueError, match="rows"):
        matrix_equation_problem(np.eye(4), np.ones((4, 1)), spec)
    with pytest.raises(ValueError, match="G X"):
        matrix_equation_problem(np.ones((5, 3)), np.ones((4, 1)), spec)


def test_matrix_equation_recovery_over_seeds():
    n, p, k = 40, 30, 4
    for seed in range(10):
        rng = np.random.default_rng(seed)
        basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
        eigs = np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(n - p), 0.0, -1.0)])
        a = 0.5 * ((basis * eigs) @ basis.T + ((basis * eigs) @ basis.T).T)
        g = gallery("kms", n, 0.5)
        spec = ManifoldSpec(a, np.eye(k))
        x_star = make_point(spec, pos_indices=np.arange(k))
        problem = matrix_equation_problem(g, g @ x_star, spec)
        x0 = make_point(spec, pos_indices=np.arange(p - k, p))
        record = solve(problem, x0, SolverConfig(max_iter=500))
        assert record.status == "converged"
        assert np.linalg.norm(record.x - x_star) <= 1e-6


def test_matrix_equation_identity_g_projects():
    # G = I: find the manifold point closest to B in the Frobenius norm
    rng = np.random.default_rng(11)
    n, k = 8, 2
    a = np.diag(np.concatenate([np.arange(1.0, 6.0), -np.arange(1.0, 4.0)]))
    spec = ManifoldSpec(a, np.eye(k))
    x_star = make_point(spec)
    problem = matrix_equation_problem(np.eye(n), x_star, spec, metric="euclidean")
    record = solve(problem, perturbed_point(spec, rng), SolverConfig(max_iter=2000))
    assert record.status == "converged"
    assert record.obj <= 1e-15


# -------------------------------------------------------- factory-wide gradient


@pytest.mark.parametrize("factory", ["tracemin", "lrevp", "procrustes", "matexeq"])
def test_factories_pass_gradient_check(factory):
    rng = np.random.default_rng(12)
    if factory == "tracemin":
        a = np.diag(np.concatenate([np.arange(1.0, 7.0), -np.arange(1.0, 5.0)]))
        problem = trace_min_problem(random_spd(rng, 10), a, signature(2, 1))
    elif factory == "lrevp":
        problem = lrevp_problem(random_spd(rng, 6), random_spd(rng, 6), 2)
    elif factory == "procrustes":
        n, p = 6, 4
        g = rng.standard_normal((7, n))
        problem = procrustes_problem(g, g @ np.eye(n), signature(p, n - p))
    else:
        n, k = 8, 2
        a = np.diag(np.concatenate([np.arange(1.0, 6.0), -np.arange(1.0, 4.0)]))
        g = random_spd(rng, n)
        spec = ManifoldSpec(a, np.eye(k))
        problem = matrix_equation_problem(g, g @ make_point(spec), spec)
    for _ in range(5):
        x = perturbed_point(problem.spec, rng, scale=0.4)
        assert gradient_check(problem, x, 1e-6, n_dirs=8, rng=rng) <= 1e-4
