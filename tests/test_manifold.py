"""Manifold geometry: admissibility, tangent spaces, metrics, projections."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.linalg

from indefstiefel import ManifoldSpec, MetricSpec, feasibility, make_point, signature
from indefstiefel.linalg import random_rotation, solve_lyapunov, sym
from indefstiefel.manifold import metric_inner, metric_norm, riemannian_gradient

from conftest import perturbed_point, pointwise_metric, random_indefinite, random_spd, random_spec
from theory import (
    assemble_tangent,
    dimension,
    norm_a,
    project_tangent,
    random_tangent,
    tangency_residual,
)


def tangent_basis(spec, x):
    """Explicit basis of the tangent space from the free parameterization."""
    n, k = spec.n, spec.k
    basis = []
    for a in range(k):
        for b in range(a + 1, k):
            s = np.zeros((k, k))
            s[a, b], s[b, a] = 1.0, -1.0
            basis.append(assemble_tangent(spec, x, s, np.zeros((n - k, k))))
    for c in range(n - k):
        for d in range(k):
            kf = np.zeros((n - k, k))
            kf[c, d] = 1.0
            basis.append(assemble_tangent(spec, x, np.zeros((k, k)), kf))
    return basis


# ---------------------------------------------------------------- construction


def test_spec_validates_involution():
    with pytest.raises(ValueError):
        ManifoldSpec(np.diag([1.0, -1.0]), np.array([[2.0]]))  # J^2 != I


def test_spec_rejects_singular_a():
    with pytest.raises(ValueError):
        ManifoldSpec(np.diag([1.0, 0.0]), np.array([[1.0]]))


def test_spec_rejects_empty_manifold():
    # i+(J) = 2 > 1 = i+(A)
    with pytest.raises(ValueError, match="i\\+\\(J\\)"):
        ManifoldSpec(np.diag([1.0, -1.0, -1.0]), np.eye(2))
    # i-(J) = 1 > 0 = i-(A)
    with pytest.raises(ValueError, match="i-\\(J\\)"):
        ManifoldSpec(np.eye(3), np.diag([1.0, -1.0]))


def test_spec_inertia_reporting():
    spec = random_spec(np.random.default_rng(1), 7, 4, 2, 2)
    assert spec.n == 7 and spec.k == 4
    assert spec.inertia_a.n_pos == 4 and spec.inertia_a.n_neg == 3
    assert spec.inertia_j.n_pos == 2 and spec.inertia_j.n_neg == 2


def test_spec_reads_diagonal_inertia_and_shares_j_with_a(monkeypatch):
    q = random_rotation(2, np.random.default_rng(3))
    rotated = ManifoldSpec(np.diag([1.0, 2.0, -1.0, -2.0]), q.T @ signature(1, 1) @ q)
    assert rotated.inertia_j == (1, 1, 0)

    def no_eigvalsh(*args, **kwargs):
        raise AssertionError("a diagonal matrix's inertia is its diagonal's")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_eigvalsh)
    spec = ManifoldSpec(np.diag([1.0, 2.0, 3.0, -1.0]), signature(2, 1))
    assert spec.inertia_a == (3, 1, 0) and spec.inertia_j == (2, 1, 0)
    # the J-orthogonal group iSt_{J,J}: one read-only array for A and J
    j = signature(3, 2)
    group = ManifoldSpec(j, j)
    assert group.A is group.J and not group.A.flags.writeable
    assert np.array_equal(group.A, j)
    assert group.inertia_a == group.inertia_j == (3, 2, 0)


def test_spec_builds_no_lu_factorization(monkeypatch):
    # the solver never applies A^{-1}, so no spec pays for a factorization
    rng = np.random.default_rng(2)
    signs = np.array([1, 1, 1, -1, -1, -1])

    def no_lu(*args, **kwargs):
        raise AssertionError("A must not be LU-factorized")

    monkeypatch.setattr(scipy.linalg, "lu_factor", no_lu)
    ManifoldSpec(np.diag(rng.uniform(0.5, 3.0, 6) * signs), signature(1, 1))
    ManifoldSpec(random_indefinite(rng, 6, 3), signature(1, 1))


def _bits(a: np.ndarray) -> np.ndarray:
    """Raw float64 bit patterns, so -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("diagonal", [True, False])
def test_apply_a_bitwise_equals_dense_product(diagonal):
    rng = np.random.default_rng(12)
    n = 9
    d = rng.uniform(0.5, 3.0, n) * np.where(np.arange(n) < 5, 1.0, -1.0)
    a = np.diag(d) if diagonal else random_indefinite(rng, n, 5)
    spec = ManifoldSpec(a, signature(1, 1))
    x = rng.standard_normal((n, 4))
    x[::3, 1] = 0.0           # +0 times negative diagonal entries gives -0
    x[1::2, 2] = -0.0
    for xin in (x, np.asfortranarray(x), x[:, 0], x[:, 1]):
        out = spec.apply_a(xin)
        assert out.flags.c_contiguous
        assert np.array_equal(_bits(out), _bits(spec.A @ xin))


def test_norm_a_is_spectral():
    a = np.diag([3.0, -7.0, 1.0])
    spec = ManifoldSpec(a, np.array([[1.0]]))
    assert norm_a(spec) == pytest.approx(7.0)


# ----------------------------------------------------------------- make_point


def test_make_point_feasible():
    rng = np.random.default_rng(3)
    for n, p, kp, km in [(6, 3, 2, 1), (10, 7, 3, 3), (5, 5, 2, 0)]:
        spec = random_spec(rng, n, p, kp, km)
        x = make_point(spec)
        scale = np.linalg.norm(spec.J)
        assert feasibility(spec, x) <= 1e-10 * max(scale, 1.0)


def test_make_point_default_selects_smallest_magnitude():
    a = np.diag([4.0, 1.0, 9.0, -16.0, -25.0])
    spec = ManifoldSpec(a, signature(1, 1))
    x = make_point(spec)
    # default positive direction: eigenvalue 1 (column 1), scaled by 1
    # default negative direction: eigenvalue -16 (column 3), scaled by 1/4
    span = np.abs(x) > 1e-12
    assert set(np.flatnonzero(span.any(axis=1))) == {1, 3}


def _make_point_reference(spec, pos_indices=None, neg_indices=None):
    """make_point built from all n eigenvectors of A: for a diagonal A the
    columns of np.eye(n) in ascending-eigenvalue order."""
    d = np.diag(spec.A)
    if np.count_nonzero(spec.A) == np.count_nonzero(d):
        order = np.argsort(d, kind="stable")
        w, v = d[order], np.eye(spec.n)[:, order]
    else:
        w, v = np.linalg.eigh(spec.A)
    kp, km = spec.inertia_j.n_pos, spec.inertia_j.n_neg
    pos, neg = np.flatnonzero(w > 0), np.flatnonzero(w < 0)
    if pos_indices is None:
        pos_indices = np.argsort(w[pos])[:kp]
    if neg_indices is None:
        neg_indices = np.argsort(-w[neg])[:km]
    cols = np.concatenate([pos[np.asarray(pos_indices)], neg[np.asarray(neg_indices)]])
    frame = v[:, cols] / np.sqrt(np.abs(w[cols]))
    wj, uj = np.linalg.eigh(spec.J)
    return frame @ uj[:, np.argsort(-wj)].T


@pytest.mark.parametrize("diagonal", [True, False])
@pytest.mark.parametrize("rotated_j", [False, True])
@pytest.mark.parametrize("indices", [(None, None), ([3, 0], [1])])
def test_make_point_bitwise_equals_full_eigenvector_frame(diagonal, rotated_j, indices):
    # the solver's iterates depend on the start's last bits and signs of zero
    rng = np.random.default_rng(5)
    spec = random_spec(rng, 12, 7, 2, 1, diagonal=diagonal)
    if rotated_j:
        q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        spec = ManifoldSpec(spec.A, q @ signature(2, 1) @ q.T)
    x = make_point(spec, *indices)
    ref = _make_point_reference(spec, *indices)
    assert (x.flags.c_contiguous, x.flags.f_contiguous) == (
        ref.flags.c_contiguous, ref.flags.f_contiguous)
    assert np.array_equal(_bits(x), _bits(ref))


def test_make_point_explicit_indices():
    a = np.diag([1.0, 2.0, 3.0, -1.0, -2.0])
    spec = ManifoldSpec(a, signature(2, 1))
    x = make_point(spec, pos_indices=[1, 2], neg_indices=[0])
    assert feasibility(spec, x) <= 1e-12
    with pytest.raises(ValueError):
        make_point(spec, pos_indices=[0], neg_indices=[0])  # wrong count


# -------------------------------------------------------------- tangent space


def test_random_tangent_is_tangent():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 12))
        p = int(rng.integers(1, n))
        kp = int(rng.integers(0, min(p, 3) + 1))
        km = int(rng.integers(0 if kp else 1, min(n - p, 3) + 1))
        if kp + km == 0:
            kp = 1
        spec = random_spec(rng, n, p, kp, km)
        x = make_point(spec)
        z = random_tangent(spec, x, rng)
        scale = max(np.linalg.norm(z) * np.linalg.norm(spec.A @ x), 1.0)
        worst = max(worst, tangency_residual(spec, x, z) / scale)
    assert worst <= 1e-12


def test_tangent_space_full_square_case():
    # k = n: the free block disappears, tangents are X J S with S skew
    rng = np.random.default_rng(5)
    spec = random_spec(rng, 4, 2, 2, 2)
    x = make_point(spec)
    z = random_tangent(spec, x, rng)
    assert tangency_residual(spec, x, z) <= 1e-12
    assert assemble_tangent(spec, x, np.zeros((4, 4)), np.zeros((0, 4))).shape == (4, 4)


def test_assemble_tangent_zero_is_zero():
    spec = random_spec(np.random.default_rng(6), 6, 4, 2, 1)
    x = make_point(spec)
    z = assemble_tangent(spec, x, np.zeros((3, 3)), np.zeros((3, 3)))
    assert np.linalg.norm(z) == 0.0


def test_tangent_space_rank_matches_dimension():
    rng = np.random.default_rng(7)
    spec = random_spec(rng, 7, 4, 2, 1)
    x = make_point(spec)
    basis = tangent_basis(spec, x)
    stack = np.array([b.ravel() for b in basis])
    rank = np.linalg.matrix_rank(stack, tol=1e-10)
    assert rank == dimension(spec) == len(basis)


# -------------------------------------------------------------------- metrics


def test_metric_kinds():
    rng = np.random.default_rng(8)
    n, k = 6, 2
    x = rng.standard_normal((n, k))
    y = rng.standard_normal((n, k))
    m = random_spd(rng, n)

    euclid = MetricSpec.euclidean()
    assert np.allclose(euclid.apply(x, y), y)
    assert np.allclose(euclid.apply_inverse(x, y), y)

    weighted = MetricSpec.weighted(m)
    assert np.allclose(weighted.apply(x, y), m @ y)
    assert np.allclose(m @ weighted.apply_inverse(x, y), y, atol=1e-10)

    pointwise = pointwise_metric(lambda _: m)
    assert np.allclose(pointwise.apply(x, y), m @ y)
    assert np.allclose(m @ pointwise.apply_inverse(x, y), y, atol=1e-10)


def test_weighted_metric_requires_spd():
    with pytest.raises(ValueError):
        MetricSpec.weighted(np.diag([1.0, -1.0]))


def test_metric_norm_consistency():
    rng = np.random.default_rng(10)
    spec = random_spec(rng, 6, 4, 2, 1)
    x = make_point(spec)
    z = random_tangent(spec, x, rng)
    m = random_spd(rng, 6)
    metric = MetricSpec.weighted(m)
    direct = np.sqrt(np.vdot(z, m @ z))
    assert metric_norm(metric, x, z) == pytest.approx(direct, rel=1e-12)


# ---------------------------------------------------------------- projections


def metrics_for(rng, n):
    return [
        MetricSpec.euclidean(),
        MetricSpec.weighted(random_spd(rng, n)),
        pointwise_metric(lambda x: np.eye(n) + x @ x.T),
    ]


def test_projection_properties():
    rng = np.random.default_rng(11)
    for trial in range(20):
        n = int(rng.integers(3, 10))
        p = int(rng.integers(1, n))
        kp = min(p, 1 + trial % 2)
        km = min(n - p, 1)
        if kp + km == 0:
            continue
        spec = random_spec(rng, n, p, kp, km)
        x = make_point(spec)
        for metric in metrics_for(rng, n):
            y = rng.standard_normal((n, kp + km))
            pt = project_tangent(spec, metric, x, y)
            pn = y - pt
            scale = max(np.linalg.norm(y), 1.0)
            # tangency, idempotence, metric orthogonality of the remainder
            assert tangency_residual(spec, x, pt) <= 1e-8 * scale * np.linalg.norm(spec.A @ x)
            twice = project_tangent(spec, metric, x, pt)
            assert np.linalg.norm(twice - pt) <= 1e-9 * scale
            assert abs(metric_inner(metric, x, pn, pt)) <= 1e-8 * scale**2


def test_projection_matches_least_squares_oracle():
    rng = np.random.default_rng(12)
    spec = random_spec(rng, 7, 4, 2, 1)
    x = make_point(spec)
    for metric in metrics_for(rng, 7):
        y = rng.standard_normal((7, 3))
        basis = tangent_basis(spec, x)
        gram = np.array([[metric_inner(metric, x, bi, bj) for bj in basis] for bi in basis])
        rhs = np.array([metric_inner(metric, x, bi, y) for bi in basis])
        coeffs = np.linalg.solve(gram, rhs)
        oracle = sum(c * b for c, b in zip(coeffs, basis))
        pt = project_tangent(spec, metric, x, y)
        assert np.linalg.norm(pt - oracle) <= 1e-8 * max(np.linalg.norm(y), 1.0)


def test_projection_fixes_tangent_vectors():
    rng = np.random.default_rng(13)
    spec = random_spec(rng, 6, 3, 1, 2)
    x = make_point(spec)
    z = random_tangent(spec, x, rng)
    for metric in metrics_for(rng, 6):
        pt = project_tangent(spec, metric, x, z)
        assert np.allclose(pt, z, atol=1e-9 * max(np.linalg.norm(z), 1.0))


# ------------------------------------------------------------------- gradient


def test_gradient_duality():
    rng = np.random.default_rng(14)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(3, 10))
        p = int(rng.integers(1, n))
        kp, km = min(p, 1), min(n - p, 1)
        if kp + km == 0:
            continue
        spec = random_spec(rng, n, p, kp, km)
        x = make_point(spec)
        metric = MetricSpec.weighted(random_spd(rng, n))
        egrad = rng.standard_normal((n, kp + km))
        grad = riemannian_gradient(spec, metric, x, metric.apply_inverse(x, egrad))
        z = random_tangent(spec, x, rng)
        lhs = metric_inner(metric, x, grad, z)
        rhs = float(np.vdot(egrad, z))
        scale = max(np.linalg.norm(egrad) * np.linalg.norm(z), 1.0)
        worst = max(worst, abs(lhs - rhs) / scale)
    assert worst <= 1e-10


def test_gradient_one_metric_solve_matches_two():
    # the gradient applies M_X^{-1} to AX alone and projects the vector it is
    # given; the result must equal bit for bit the gradient built explicitly
    rng = np.random.default_rng(16)
    n = 40
    spec = random_spec(rng, n, 25, 2, 2, diagonal=True)
    x = perturbed_point(spec, rng)
    egrad = rng.standard_normal((n, 4))
    for metric in metrics_for(rng, n):
        ax = spec.A @ x
        mi_ax = metric.apply_inverse(x, ax)
        w1 = metric.apply_inverse(x, egrad)
        u = solve_lyapunov(sym(ax.T @ mi_ax), 2.0 * sym(ax.T @ w1))
        grad = riemannian_gradient(spec, metric, x, w1)
        assert np.array_equal(grad, w1 - mi_ax @ u)


@pytest.mark.parametrize("diagonal", [False, True])
def test_given_a_x_gives_the_same_bits(diagonal):
    # the solver hands feasibility and the gradient the A X it computed once
    # per point; both must return what they return when they compute it
    rng = np.random.default_rng(17)
    n = 30
    spec = random_spec(rng, n, 18, 2, 2, diagonal=diagonal)
    x = perturbed_point(spec, rng) + 1e-6 * rng.standard_normal((n, 4))
    ax = spec.apply_a(x)
    assert feasibility(spec, x, ax) == feasibility(spec, x) > 1e-8
    w = rng.standard_normal((n, 4))
    for metric in metrics_for(rng, n):
        grad = riemannian_gradient(spec, metric, x, w)
        assert np.array_equal(riemannian_gradient(spec, metric, x, w, ax), grad)


def test_gradient_euclidean_riesz_consistency():
    rng = np.random.default_rng(15)
    spec = random_spec(rng, 6, 4, 2, 1)
    x = make_point(spec)
    metric = MetricSpec.euclidean()
    egrad = rng.standard_normal((6, 3))
    grad = riemannian_gradient(spec, metric, x, metric.apply_inverse(x, egrad))
    proj = project_tangent(spec, metric, x, egrad)
    assert np.allclose(grad, proj, atol=1e-12)
