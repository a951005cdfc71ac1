"""Gradient descent loop: BB steps, nonmonotone search, records, termination."""

from __future__ import annotations

import json

import numpy as np
import pytest

from indefstiefel import (
    ManifoldSpec,
    Problem,
    MetricSpec,
    SolverConfig,
    feasibility,
    make_point,
    pencil_oracle,
    signature,
    solve,
    trace_min_problem,
)
from indefstiefel import linalg, optimizer, retraction
from indefstiefel import test_matrix as gallery
from indefstiefel.manifold import metric_norm, riemannian_gradient
from indefstiefel.optimizer import HISTORY_COLUMNS, bb_trial_step

from conftest import CURVES, block_diag_orthogonal, perturbed_point, random_indefinite, random_spd
from theory import gradient_check


def hyperbola_problem():
    """min 2 x1^2 + x2^2 on the unit hyperbola x1^2 - x2^2 = 1; f* = 2 at (+-1, 0)."""
    m = np.diag([2.0, 1.0])
    a = np.diag([-1.0, 1.0])
    j = np.array([[-1.0]])
    spec = ManifoldSpec(a, j)
    return Problem(
        spec=spec,
        metric=MetricSpec.weighted(m),
        f=lambda x: float(np.vdot(x, m @ x)),
        egrad=lambda x: 2.0 * (m @ x),
    )


def small_pencil_problem(seed=0, metric="hessian"):
    rng = np.random.default_rng(seed)
    a = np.diag([1.0, 2.0, 3.0, -1.0, -2.0])
    m = random_spd(rng, 5)
    problem = trace_min_problem(m, a, signature(1, 1), metric=metric)
    x0 = perturbed_point(problem.spec, rng)
    return problem, x0, m, a


# ------------------------------------------------------------------ BB formula


def test_bb_step_alternates():
    config = SolverConfig()
    w = np.array([[1.0, 0.0], [0.0, 2.0]])
    y = np.array([[0.5, 0.0], [0.0, 1.0]])
    wy = abs(np.vdot(w, y))  # 2.5
    assert bb_trial_step(w, y, 1, config) == pytest.approx(np.vdot(w, w) / wy)
    assert bb_trial_step(w, y, 2, config) == pytest.approx(wy / np.vdot(y, y))


def test_bb_step_clamps():
    config = SolverConfig(gamma_min=1e-2, gamma_max=10.0)
    w = np.array([[100.0]])
    y = np.array([[1e-6]])
    assert bb_trial_step(w, y, 1, config) == 10.0  # huge ratio clamped high
    assert bb_trial_step(y, w, 1, config) == pytest.approx(1e-2)  # tiny clamped low


def test_bb_step_degenerate_falls_back():
    config = SolverConfig(gamma0=1e-3)
    zero = np.zeros((2, 2))
    assert bb_trial_step(zero, zero, 1, config) == pytest.approx(1e-3)
    assert bb_trial_step(zero, zero, 2, config) == pytest.approx(1e-3)


# ---------------------------------------------------------------- convergence


def test_hyperbola_minimum():
    problem = hyperbola_problem()
    x0 = np.array([[np.cosh(1.0)], [np.sinh(1.0)]])
    record = solve(problem, x0, SolverConfig(rstop=1e-10, max_iter=200))
    assert record.status == "converged"
    assert record.obj == pytest.approx(2.0, abs=1e-12)
    assert abs(record.x[0, 0]) == pytest.approx(1.0, abs=1e-7)
    assert record.x[1, 0] == pytest.approx(0.0, abs=1e-7)


def test_diagonal_pencil_matches_oracle():
    problem, x0, m, a = small_pencil_problem()
    record = solve(problem, x0, SolverConfig(rstop=1e-11, max_iter=2000))
    _, _, f_star = pencil_oracle(m, a, 1, 1)
    assert record.status == "converged"
    assert record.obj == pytest.approx(f_star, rel=1e-9)


@pytest.mark.parametrize("form", tuple(CURVES))
def test_forms_reach_same_minimum(monkeypatch, form):
    # the solver on the dense oracle and on the library's Woodbury kernel
    monkeypatch.setattr(optimizer, "CayleyCurve", CURVES[form])
    problem, x0, m, a = small_pencil_problem(seed=1)
    record = solve(problem, x0, SolverConfig(max_iter=2000))
    _, _, f_star = pencil_oracle(m, a, 1, 1)
    assert record.status == "converged"
    assert record.obj == pytest.approx(f_star, rel=1e-8)


def test_many_starting_points_reach_oracle():
    problem, _, m, a = small_pencil_problem(seed=3)
    _, _, f_star = pencil_oracle(m, a, 1, 1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        x0 = perturbed_point(problem.spec, rng, scale=0.8)
        record = solve(problem, x0, SolverConfig(max_iter=5000))
        assert record.status == "converged"
        assert record.obj == pytest.approx(f_star, rel=1e-7)


# ------------------------------------------------------------- loop invariants


def test_gradient_norm_meets_relative_stop():
    problem, x0, _, _ = small_pencil_problem(seed=4)
    config = SolverConfig(rstop=1e-7)
    record = solve(problem, x0, config)
    gn0 = record.rows[0][2]
    assert record.gradnorm <= config.rstop * gn0


def test_monotone_armijo_when_alpha_zero():
    problem, x0, _, _ = small_pencil_problem(seed=5)
    config = SolverConfig(alpha=0.0, max_iter=2000)
    record = solve(problem, x0, config)
    hist = record.history()
    f = hist[:, 1]
    gradnorm = hist[:, 2]
    tau = hist[:, 3]
    assert record.status == "converged"
    for j in range(len(f) - 1):
        assert f[j + 1] <= f[j] - config.beta * tau[j + 1] * gradnorm[j] ** 2 + 1e-14


def test_nonmonotone_condition_replay():
    problem, x0, _, _ = small_pencil_problem(seed=6)
    config = SolverConfig(alpha=0.85, max_iter=2000)
    record = solve(problem, x0, config)
    hist = record.history()
    f, gradnorm, tau = hist[:, 1], hist[:, 2], hist[:, 3]
    q, c = 1.0, f[0]
    for j in range(len(f) - 1):
        # accepted step j -> j+1 satisfied the averaged sufficient decrease
        assert f[j + 1] <= c - config.beta * tau[j + 1] * gradnorm[j] ** 2 + 1e-12
        q_next = config.alpha * q + 1.0
        c = (config.alpha * q * c + f[j + 1]) / q_next
        q = q_next


def test_feasibility_stays_tight():
    problem, x0, _, _ = small_pencil_problem(seed=7)
    record = solve(problem, x0, SolverConfig(max_iter=2000))
    assert record.history()[:, 4].max() <= 1e-12


def test_deterministic_given_inputs():
    problem, x0, _, _ = small_pencil_problem(seed=8)
    rec1 = solve(problem, x0, SolverConfig(max_iter=500))
    rec2 = solve(problem, x0, SolverConfig(max_iter=500))
    assert np.array_equal(rec1.x, rec2.x)
    h1, h2 = rec1.history(), rec2.history()
    assert np.array_equal(h1[:, :5], h2[:, :5])  # all but the time column


# ----------------------------------------------------------------- termination


def test_infeasible_start_rejected():
    problem, x0, _, _ = small_pencil_problem(seed=9)
    with pytest.raises(ValueError, match="infeasible"):
        solve(problem, x0 + 0.5)


def test_non_finite_objective_rejected():
    problem, x0, _, _ = small_pencil_problem(seed=10)
    bad = Problem(
        spec=problem.spec, metric=problem.metric,
        f=lambda x: float("nan"), egrad=problem.egrad,
    )
    with pytest.raises(ValueError, match="not finite"):
        solve(bad, x0)


def test_max_iter_status():
    problem, x0, _, _ = small_pencil_problem(seed=11)
    record = solve(problem, x0, SolverConfig(max_iter=3, rstop=1e-16))
    assert record.status == "max_iter"
    assert record.n_iter == 3


def test_stall_status_when_search_cannot_move():
    # the trial step is pinned at 1e5 and no backtracking is allowed, so the
    # one admissible trial either breaks down or fails the decrease condition
    problem = hyperbola_problem()
    x0 = np.array([[np.cosh(1.0)], [np.sinh(1.0)]])
    config = SolverConfig(
        gamma0=1e5, gamma_min=1e5, gamma_max=1e5, max_backtracks=0, rstop=1e-16
    )
    record = solve(problem, x0, config)
    assert record.status == "stalled"
    assert record.n_iter == 0


def test_drifting_end_point_reported_infeasible(monkeypatch):
    # every trial point is pushed off the manifold by a fixed offset: the
    # gradient test is still met, but the end point must not pass as converged
    class DriftingCurve(optimizer.CayleyCurve):
        def at(self, t):
            return super().at(t) + 1e-6

    monkeypatch.setattr(optimizer, "CayleyCurve", DriftingCurve)
    problem, x0, _, _ = small_pencil_problem(seed=13)
    config = SolverConfig(rstop=1e-3)
    record = solve(problem, x0, config)
    assert record.status == "infeasible"
    assert record.gradnorm <= config.rstop * record.rows[0][2]
    assert len(record.rows) == record.n_iter + 1 > 1
    assert [row[0] for row in record.rows] == list(range(record.n_iter + 1))
    assert record.feas == feasibility(problem.spec, record.x)
    assert record.feas > 1e-8 * np.linalg.norm(problem.spec.J)


# --------------------------------------------------------------------- records


def test_history_layout_and_first_row():
    problem, x0, _, _ = small_pencil_problem(seed=12)
    record = solve(problem, x0, SolverConfig(max_iter=50, rstop=1e-16))
    hist = record.history()
    assert hist.shape == (record.n_iter + 1, len(HISTORY_COLUMNS))
    assert hist[0, 0] == 0 and hist[0, 3] == 0.0
    assert np.array_equal(hist[:, 0], np.arange(record.n_iter + 1))
    assert np.all(np.diff(hist[:, 5]) >= 0)  # time column nondecreasing


def test_record_summary_recomputable():
    problem, x0, _, _ = small_pencil_problem(seed=13)
    record = solve(problem, x0)
    summary = record.summary()
    assert summary["obj"] == pytest.approx(problem.f(record.x), rel=1e-12)
    assert summary["feas"] == pytest.approx(feasibility(problem.spec, record.x), rel=1e-9, abs=1e-15)
    grad = riemannian_gradient(problem.spec, problem.metric, record.x, problem.metric_grad(record.x))
    assert summary["gradnorm"] == pytest.approx(
        metric_norm(problem.metric, record.x, grad), rel=1e-9, abs=1e-18
    )
    assert summary["status"] == "converged"
    assert summary["feval"] >= summary["iter"] + 1


def test_solve_takes_every_gradient_through_riemannian_gradient(monkeypatch):
    # the benchmark traces the gradient layer by wrapping this module attribute
    calls = []
    original = optimizer.riemannian_gradient

    def counted(*args):
        calls.append(1)
        return original(*args)

    monkeypatch.setattr(optimizer, "riemannian_gradient", counted)
    problem, x0, _, _ = small_pencil_problem(seed=14)
    record = solve(problem, x0, SolverConfig(max_iter=20, rstop=1e-16))
    assert len(calls) == record.n_iter + 1


def test_record_csv_and_json(tmp_path):
    problem, x0, _, _ = small_pencil_problem(seed=14)
    record = solve(problem, x0, SolverConfig(max_iter=20, rstop=1e-16))
    csv_path = tmp_path / "history.csv"
    record.to_csv(csv_path)

    lines = csv_path.read_text().splitlines()
    assert lines[0] == "iter,f,gradnorm,tau,feas,time_s"
    parsed = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert np.allclose(parsed[:, :5], record.history()[:, :5], rtol=1e-15)

    # the summary is what the command line writes to summary.json
    assert json.loads(json.dumps(record.summary())) == record.summary()


# -------------------------------------------------------------- gradient check


def test_gradient_check_small_on_smooth_problem():
    problem, x0, _, _ = small_pencil_problem(seed=15)
    err = gradient_check(problem, x0, 1e-6, n_dirs=15, rng=np.random.default_rng(0))
    assert err <= 1e-4


def test_gradient_check_error_decays_with_h():
    problem, x0, _, _ = small_pencil_problem(seed=16)
    rng_seed = lambda: np.random.default_rng(1)
    errs = [gradient_check(problem, x0, h, n_dirs=10, rng=rng_seed()) for h in (1e-2, 1e-4)]
    assert errs[1] < errs[0]


def test_gradient_check_flags_wrong_gradient():
    problem, x0, _, _ = small_pencil_problem(seed=17)
    wrong = Problem(
        spec=problem.spec, metric=problem.metric,
        f=problem.f, egrad=lambda x: 3.1 * problem.egrad(x),
    )
    err = gradient_check(wrong, x0, 1e-6, n_dirs=10, rng=np.random.default_rng(2))
    assert err > 1e-2


def test_benchmark_scale_feasibility_drift():
    # moderately sized weighted-metric run keeps feasibility near machine accuracy
    n, p, m = 100, 60, 40
    mat = gallery("tridiag", n)
    a = np.diag(np.concatenate([np.arange(1.0, p + 1.0), -np.arange(1.0, m + 1.0)]))
    problem = trace_min_problem(mat, a, signature(2, 2), metric="hessian")
    x0 = make_point(problem.spec)
    record = solve(problem, x0, SolverConfig(max_iter=3000))
    assert record.status == "converged"
    assert record.feas <= 1e-12


@pytest.mark.parametrize("form", ["full", None])
def test_diagonal_a_operator_keeps_iterates_bitwise(monkeypatch, form):
    # the row-scaling A X of a diagonal A must drive the solver through the
    # same iterates as the dense product A @ X it replaces; the dense
    # kernel's F-ordered iterates catch a result that is not C-ordered
    if form == "full":
        monkeypatch.setattr(retraction, "_woodbury", lambda n, k: False)
    n, p = 100, 70
    a = np.diag(np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(n - p), 0.0, -1.0)]))
    problem = trace_min_problem(gallery("lehmer", n), a, signature(3, 2), metric="hessian")
    x0 = make_point(problem.spec)
    config = SolverConfig(rstop=1e-9)
    fast = solve(problem, x0, config)
    monkeypatch.setattr(ManifoldSpec, "apply_a", lambda self, x: self.A @ x)
    dense = solve(problem, x0, config)
    assert fast.status == "converged" and fast.n_iter > 20
    assert (fast.n_iter, fast.n_feval) == (dense.n_iter, dense.n_feval)
    assert np.array_equal(fast.x, dense.x)
    assert np.array_equal(fast.history()[:, 1], dense.history()[:, 1])


def test_one_a_product_per_point_and_per_direction(monkeypatch):
    # at a Woodbury shape, each iteration applies A twice, to the accepted
    # point and to the search direction, and the start once more to X0
    n, p = 60, 40
    assert retraction._woodbury(n, 5)
    a = np.diag(np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(n - p), 0.0, -1.0)]))
    problem = trace_min_problem(gallery("lehmer", n), a, signature(3, 2), metric="hessian")
    x0 = make_point(problem.spec)
    apply_a, calls = ManifoldSpec.apply_a, []

    def counted(self, x):
        calls.append(x.shape)
        return apply_a(self, x)

    monkeypatch.setattr(ManifoldSpec, "apply_a", counted)
    record = solve(problem, x0, SolverConfig(rstop=1e-8))
    assert record.status == "converged" and record.n_iter > 20
    assert len(calls) == 2 * record.n_iter + 1
    assert set(calls) == {(n, 5)}


def test_banded_m_keeps_dense_iterates_and_reaches_oracle(monkeypatch):
    # a tridiagonal M of order 400 is applied and factored banded; the dense
    # form reached through the rule is the reference it must track
    n = 400
    m = gallery("tridiag", n)
    a = np.diag(np.concatenate([np.arange(1.0, 201.0), -np.arange(1.0, 201.0)]))
    j = signature(3, 2)
    banded = trace_min_problem(m, a, j, metric="hessian")
    with monkeypatch.context() as patch:
        patch.setattr(linalg, "_banded", lambda n, b: False)
        dense = trace_min_problem(m, a, j, metric="hessian")
    assert banded.metric.matrix.banded and not dense.metric.matrix.banded
    x0 = make_point(banded.spec)
    assert np.array_equal(x0, make_point(dense.spec))
    for iters in (1, 2):
        config = SolverConfig(max_iter=iters)
        fast, ref = solve(banded, x0, config), solve(dense, x0, config)
        assert fast.n_iter == ref.n_iter == iters
        assert np.linalg.norm(fast.x - ref.x) <= 1e-10 * np.linalg.norm(ref.x)
    record = solve(banded, x0, SolverConfig(rstop=1e-9))
    _, _, f_star = pencil_oracle(m, a, 3, 2)
    assert record.status == "converged" and record.feas <= 1e-12
    assert abs(record.obj - f_star) <= 1e-6 * abs(f_star)


@pytest.mark.parametrize("case", ["lehmer", "dense_a"])
def test_iterates_are_equivariant_under_j_orthogonal_rotation(case):
    # for orthogonal Q with Q J = J Q, f, the metric norm and the BB inner
    # products are invariant and the gradient maps to grad Q, so the run from
    # X0 Q has iterates X_j Q.  The hessian metric hands the projection
    # M^{-1} egrad = 2 X, whose X^T A (2 X) is symmetric already, so the
    # euclidean one runs too
    for metric in ("hessian", "euclidean"):
        rng = np.random.default_rng(31)
        if case == "lehmer":
            a = np.diag(np.concatenate([np.arange(1.0, 151.0), -np.arange(50.0, 0.0, -1.0)]))
            m, j = gallery("lehmer", 200), signature(3, 2)
        else:
            m, a, j = random_spd(rng, 40), random_indefinite(rng, 40, 25), signature(2, 2)
        problem = trace_min_problem(m, a, j, metric=metric)
        kp, km, _ = problem.spec.inertia_j
        q = block_diag_orthogonal(kp, km, rng)
        x0 = make_point(problem.spec)
        for iters in (1, 2):
            config = SolverConfig(max_iter=iters)
            base, rotated = solve(problem, x0, config), solve(problem, x0 @ q, config)
            assert base.n_iter == rotated.n_iter == iters
            assert np.linalg.norm(rotated.x - base.x @ q) <= 1e-10 * np.linalg.norm(base.x), metric
        if metric == "hessian":
            _, _, f_star = pencil_oracle(m, a, kp, km)
            for start in (x0, x0 @ q):
                record = solve(problem, start)
                assert record.status == "converged"
                assert abs(record.obj - f_star) <= 1e-6 * abs(f_star)
