"""Symmetric linear algebra kernels: decompositions, Lyapunov solves, generators."""

from __future__ import annotations

import tracemalloc
from functools import partial

import numpy as np
import pytest
import scipy.io
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dgecon, dgetrf, dgetrs
from hypothesis import given, settings
from hypothesis import strategies as st

from indefstiefel import (
    MetricSpec,
    SolverConfig,
    linalg,
    make_point,
    read_mtx,
    signature,
    solve,
    trace_min_problem,
)
from indefstiefel import test_matrix as gallery
from indefstiefel.linalg import (
    Inertia,
    SymOperator,
    bandwidth,
    checked_solve,
    random_rotation,
    sign_counts,
    skew,
    solve_lyapunov,
    sym,
)

from conftest import random_spd
from theory import banded_product


def test_sym_skew_decompose():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((7, 7))
    s, w = sym(a), skew(a)
    assert np.allclose(s, s.T)
    assert np.allclose(w, -w.T)
    assert np.allclose(s + w, a)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=2**31 - 1))
def test_sym_plus_skew_is_identity(n, seed):
    a = np.random.default_rng(seed).standard_normal((n, n))
    assert np.allclose(sym(a) + skew(a), a, atol=1e-14)


def test_sym_rejects_nonsquare():
    with pytest.raises(ValueError):
        sym(np.ones((3, 4)))
    with pytest.raises(ValueError):
        skew(np.ones((2, 5)))


def test_inertia_counts():
    # sign counts of the eigenvalues, as ManifoldSpec computes the inertia of J
    diag = np.concatenate([np.arange(1.0, 151.0), -np.arange(50.0, 0.0, -1.0)])
    result = sign_counts(np.linalg.eigvalsh(np.diag(diag)))
    assert result == Inertia(150, 50, 0)
    assert sum(result) == 200

    assert sign_counts(np.linalg.eigvalsh(np.zeros((4, 4)))) == Inertia(0, 0, 4)
    # relative threshold: 1e-16 is a zero next to eigenvalues of size 3
    assert sign_counts(np.linalg.eigvalsh(np.diag([2.0, -3.0, 1e-16]))) == Inertia(1, 1, 1)
    assert sign_counts(np.linalg.eigvalsh(np.eye(3))) == Inertia(3, 0, 0)


def test_signature_and_rotation():
    assert np.array_equal(signature(2, 1), np.diag([1.0, 1.0, -1.0]))
    assert sign_counts(np.linalg.eigvalsh(signature(0, 3))) == Inertia(0, 3, 0)
    rng = np.random.default_rng(3)
    for size in (1, 2, 5):
        q = random_rotation(size, rng)
        assert np.allclose(q.T @ q, np.eye(size), atol=1e-14)
        assert np.linalg.det(q) == pytest.approx(1.0)


def test_lyapunov_matches_kronecker_oracle():
    rng = np.random.default_rng(2)
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = random_spd(rng, n)
        c = sym(rng.standard_normal((n, n)))
        u = solve_lyapunov(s, c)
        # oracle: vec(SU + US) = (I (x) S + S^T (x) I) vec(U), column-major
        big = np.kron(np.eye(n), s) + np.kron(s.T, np.eye(n))
        u_vec = np.linalg.solve(big, c.reshape(-1, order="F"))
        u_oracle = u_vec.reshape((n, n), order="F")
        assert np.allclose(u, sym(u_oracle), atol=1e-10)
        assert np.allclose(u, u.T)


def test_lyapunov_residual_scaled():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 9))
        s = random_spd(rng, n, 0.1, 10.0)
        c = sym(rng.standard_normal((n, n)))
        u = solve_lyapunov(s, c)
        scale = np.linalg.norm(s) * np.linalg.norm(u) + np.linalg.norm(c)
        res = np.linalg.norm(s @ u + u @ s - c) / max(scale, 1e-300)
        worst = max(worst, res)
    assert worst <= 1e-12


def test_lyapunov_rejects_non_positive_definite():
    with pytest.raises(ValueError):
        solve_lyapunov(np.diag([1.0, -1.0]), np.eye(2))
    with pytest.raises(ValueError):
        solve_lyapunov(np.diag([1.0, 0.0]), np.eye(2))


def test_tridiag_small_values():
    assert np.array_equal(gallery("tridiag", 2), np.array([[2.0, -1.0], [-1.0, 2.0]]))
    t4 = gallery("tridiag", 4)
    assert np.array_equal(np.diag(t4), np.full(4, 2.0))
    assert np.array_equal(np.diag(t4, 1), np.full(3, -1.0))
    assert np.array_equal(np.diag(t4, 2), np.zeros(2))
    t = gallery("tridiag", 300)
    assert np.array_equal(t, 2.0 * np.eye(300) - np.eye(300, k=1) - np.eye(300, k=-1))
    assert not np.signbit(t[t == 0]).any()  # +0 off the band


def test_generator_entry_formulas():
    # bitwise against the entry formulas on n x n index grids
    for n in (1, 2, 9, 200):
        i, j = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
        expected = {
            ("lehmer", None): np.minimum(i, j) / np.maximum(i, j),
            ("minij", None): np.minimum(i, j).astype(float),
            ("gcdmat", None): np.gcd(i, j).astype(float),
        }
        for rho in (0.5, -0.3):
            expected["kms", rho] = rho ** np.abs(i - j).astype(float)
        for alpha in (0.5, -2.0):
            off = np.full((n, n), alpha)
            np.fill_diagonal(off, 1.0)
            expected["moler", alpha] = alpha * alpha * (np.minimum(i, j) - 1).astype(float) + off
        for (name, param), matrix in expected.items():
            out = gallery(name, n, param)
            assert out.dtype == matrix.dtype and out.flags.c_contiguous
            assert out.tobytes() == matrix.tobytes(), (name, param, n)


def test_unknown_generator_name_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="unknown test matrix 'nope'"):
            gallery("nope", 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


def test_moler_matches_triangular_oracle():
    n, alpha = 8, 0.5
    u = np.eye(n) + alpha * np.triu(np.ones((n, n)), 1)
    assert np.allclose(gallery("moler", n, alpha), u.T @ u, atol=1e-12)


@pytest.mark.parametrize("name,param", [
    ("lehmer", None), ("minij", None), ("kms", 0.5),
    ("gcdmat", None), ("moler", 0.5), ("tridiag", None),
])
def test_generators_spd(name, param):
    for n in (1, 5, 60, 200):
        m = gallery(name, n, param)
        assert m.shape == (n, n)
        assert np.allclose(m, m.T)
        assert np.linalg.eigvalsh(m)[0] > 0


def test_generator_validation():
    with pytest.raises(ValueError):
        gallery("hilbert", 4)
    with pytest.raises(ValueError):
        gallery("kms", 4)  # param required
    with pytest.raises(ValueError):
        gallery("kms", 4, 1.0)  # needs |rho| < 1
    with pytest.raises(ValueError):
        gallery("kms", 4, 0.0)
    with pytest.raises(ValueError):
        gallery("moler", 4)  # param required
    with pytest.raises(ValueError):
        gallery("lehmer", 0)


def banded_spd(rng: np.random.Generator, n: int, b: int) -> np.ndarray:
    """Symmetric, diagonally dominant (so positive definite), bandwidth b."""
    s = np.diag(rng.uniform(1.0, 2.0, n) + 2.0 * b)
    for d in range(1, b + 1):
        v = rng.uniform(-1.0, 1.0, n - d)
        s += np.diag(v, d) + np.diag(v, -d)
    return s


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_bandwidth_detection():
    rng = np.random.default_rng(6)
    assert bandwidth(gallery("tridiag", 50)) == 1
    assert bandwidth(np.diag(rng.uniform(1.0, 2.0, 30))) == 0
    assert bandwidth(gallery("lehmer", 30)) == 29
    assert bandwidth(np.ones((1, 1))) == 0
    # a zero diagonal inside the band does not end it
    s = banded_spd(rng, 40, 3)
    s -= np.diag(np.diag(s, 2), 2) + np.diag(np.diag(s, -2), -2)
    assert bandwidth(s) == 3
    # only the corner is zero: the next diagonal out sets the width
    lehmer = gallery("lehmer", 30)
    lehmer[0, -1] = lehmer[-1, 0] = 0.0
    assert bandwidth(lehmer) == 28


@pytest.mark.parametrize("n, b", [(40, 0), (100, 1), (150, 2), (192, 3)])
def test_banded_operator_matches_dense_product_and_solve(n, b):
    # (192, 3) is the widest band the form rule keeps banded at that order
    rng = np.random.default_rng(7 + b)
    s = banded_spd(rng, n, b)
    op = SymOperator(s)
    assert op.banded and op.bandwidth == b
    solve = op.cho_solver()
    chol = scipy.linalg.cho_factor(s)
    x = rng.standard_normal((n, 4))
    for xin in (x, np.asfortranarray(x), x[:, 0], x[:, 1:3]):
        out = op @ xin
        assert out.flags.c_contiguous
        assert _rel(out, s @ xin) <= 1e-13
        assert _rel(solve(xin), scipy.linalg.cho_solve(chol, xin)) <= 1e-13


@pytest.mark.parametrize("b", [0, 1, 2, 3])
def test_banded_product_is_the_diagonal_loop_bitwise(b):
    rng = np.random.default_rng(20 + b)
    n = 256
    s = banded_spd(rng, n, b)
    op = SymOperator(s)
    assert op.banded and op.bandwidth == b
    x = rng.standard_normal((n, 6))
    x[:, 0] = -0.0  # every product term is -0: the result must hold +0
    x[5, 1] = 0.0
    rows = rng.standard_normal((2 * n, 3))[::2]  # a row stride of two
    for xin in (x, np.asfortranarray(x), x[:, 1], x[:, 0], x[:, ::2], rows):
        out, ref = op @ xin, banded_product(s, b, xin)
        assert out.flags.c_contiguous and out.shape == ref.shape
        assert out.tobytes() == ref.tobytes()  # bits, zero signbits included


def test_tridiagonal_solve_needs_no_banded_cholesky(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("banded Cholesky called")

    monkeypatch.setattr(scipy.linalg, "cholesky_banded", refuse)
    monkeypatch.setattr(scipy.linalg, "cho_solve_banded", refuse)
    rng = np.random.default_rng(30)
    s = banded_spd(rng, 200, 1)
    solve = SymOperator(s).cho_solver()
    chol = scipy.linalg.cho_factor(s)
    y = rng.standard_normal((200, 5))
    for yin in (y, np.asfortranarray(y), y[:, 0]):
        assert _rel(solve(yin), scipy.linalg.cho_solve(chol, yin)) <= 1e-13
    with pytest.raises(AssertionError, match="banded Cholesky"):
        SymOperator(banded_spd(rng, 200, 2)).cho_solver()
    s[3, 3] = np.nan  # refused before it reaches dpttrf, as by cholesky_banded
    with pytest.raises(ValueError, match="infs or NaNs"):
        SymOperator(s).cho_solver()


def test_operator_form_follows_order_and_bandwidth():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((200, 200))
    cases = [
        (gallery("lehmer", 200), 199, False),
        (sym(g.T @ g), 199, False),
        (gallery("tridiag", 2000), 1, True),
        (banded_spd(rng, 192, 3), 3, True),     # 64 b = n: the rule's edge
        (banded_spd(rng, 191, 3), 3, False),
        (banded_spd(rng, 128, 2), 2, True),
        (banded_spd(rng, 127, 2), 2, False),
        (np.diag(rng.uniform(1.0, 2.0, 3)), 0, True),
    ]
    for s, b, banded in cases:
        op = SymOperator(s)
        assert (op.bandwidth, op.banded) == (b, banded), s.shape
        x = rng.standard_normal((s.shape[0], 3))
        if not banded:
            assert np.array_equal(op @ x, s @ x)


def test_operator_forms_agree_on_asymmetric_input(monkeypatch):
    # the banded form reads the upper band and the bandwidth scan the lower
    # triangle: both forms must apply the one matrix sym(s)
    n = 200
    s = gallery("tridiag", n)
    s[np.arange(1, n), np.arange(n - 1)] += 1e-3
    x = np.random.default_rng(9).standard_normal((n, 5))
    banded = SymOperator(s)
    monkeypatch.setattr(linalg, "_banded", lambda n, b: False)
    dense = SymOperator(s)
    assert banded.banded and not dense.banded
    assert not dense.dense.flags.writeable and np.array_equal(dense.dense, sym(s))
    for op in (banded, dense):
        assert _rel(op @ x, sym(s) @ x) <= 1e-13


def test_banded_operator_builds_no_n_by_n_array():
    # the generator holds one n x n array (no index grids); the operator
    # reads the diagonals, keeps the bands and builds S = sym(s) on demand
    n = 2000
    tracemalloc.start()
    try:
        s = gallery("tridiag", n)
        generated = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        op = SymOperator(s)
        kept, peak = (m - base for m in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert generated < 8 * n * n + 1e6
    assert op.banded and op.bandwidth == 1 and "dense" not in vars(op)
    assert kept < 1e6 and peak < 16e6


def test_far_entry_in_either_triangle_makes_the_operator_dense():
    n = 200
    for i, j in ((0, n - 1), (0, n // 2), (n // 2, 0)):
        s = gallery("tridiag", n)
        s[i, j] = 1.0
        op = SymOperator(s)
        assert bandwidth(s) == bandwidth(sym(s)) == op.bandwidth == abs(i - j)
        assert not op.banded and np.array_equal(op.dense, sym(s))


def test_antisymmetric_outer_band_is_trimmed():
    # band 3 of s cancels in sym(s): the scan of s bounds b by 3, and the
    # operator keeps S's own bandwidth
    n = 200
    rng = np.random.default_rng(11)
    s = gallery("tridiag", n)
    v = rng.uniform(-1.0, 1.0, n - 3)
    s += np.diag(v, 3) - np.diag(v, -3)
    assert bandwidth(s) == 3 and bandwidth(sym(s)) == 1
    op = SymOperator(s)
    assert op.banded and op.bandwidth == 1
    x = rng.standard_normal((n, 5))
    assert (op @ x).tobytes() == banded_product(sym(s), 1, x).tobytes()
    assert _rel(op @ x, sym(s) @ x) <= 1e-13
    assert np.array_equal(op.dense, sym(s))


def test_banded_dense_is_built_on_first_read_and_read_only():
    rng = np.random.default_rng(12)
    asymmetric = gallery("tridiag", 200)
    asymmetric[np.arange(1, 200), np.arange(199)] += 1e-3
    for s in (gallery("tridiag", 200), banded_spd(rng, 192, 3),
              np.diag(rng.uniform(-2.0, 2.0, 50)), asymmetric):
        op = SymOperator(s)
        assert op.banded and "dense" not in vars(op)
        dense = op.dense
        assert op.dense is dense and not dense.flags.writeable
        assert dense.tobytes() == sym(s).tobytes()  # bits, +0 off the band


@pytest.mark.parametrize("b", [1, 2, 5])
def test_banded_inertia_from_the_band_array(b, monkeypatch):
    rng = np.random.default_rng(40 + b)
    n = 400
    s = np.diag(rng.uniform(-3.0, 3.0, n))
    for d in range(1, b + 1):
        v = rng.uniform(-1.0, 1.0, n - d)
        s += np.diag(v, d) + np.diag(v, -d)
    expected = sign_counts(np.linalg.eigvalsh(sym(s)))
    assert expected.n_pos and expected.n_neg
    op = SymOperator(s)
    assert op.banded and op.bandwidth == b

    def refuse(*args, **kwargs):
        raise AssertionError("a banded inertia needs no dense eigensolve")

    monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
    assert op.inertia() == expected
    assert "dense" not in vars(op)


def upper_band_storage(s: np.ndarray, b: int) -> np.ndarray:
    """LAPACK's upper band storage ab[b + i - j, j] = S[i, j], read from S."""
    ab = np.zeros((b + 1, s.shape[0]))
    for d in range(b + 1):
        ab[b - d, d:] = np.diagonal(s, d)
    return ab


def right_hand_sides(rng: np.random.Generator, n: int) -> list[np.ndarray]:
    """A 1-D, a C-ordered, an F-ordered and a column-strided right-hand side."""
    y = rng.standard_normal((n, 6))
    return [y[:, 0], y, np.asfortranarray(y), y[:, ::2]]


@pytest.mark.parametrize("b", [None, 3])
def test_cho_solver_has_the_bytes_of_the_scipy_solve(b):
    # the solver calls dpotrs / dpbtrs on its factor; scipy's wrappers around
    # the same routines are the reference, bit for bit
    rng = np.random.default_rng(50)
    n = 200
    if b is None:
        s = random_spd(rng, n)
        reference = partial(scipy.linalg.cho_solve, scipy.linalg.cho_factor(s), check_finite=False)
    else:
        s = banded_spd(rng, n, b)
        factor = (scipy.linalg.cholesky_banded(upper_band_storage(s, b)), False)
        reference = partial(scipy.linalg.cho_solve_banded, factor, check_finite=False)
    op = SymOperator(s)
    assert op.banded == (b is not None)
    solve = op.cho_solver()
    for y in right_hand_sides(rng, n):
        before = y.copy()
        x, ref = solve(y), reference(y)
        assert x.shape == ref.shape == y.shape
        assert x.tobytes() == ref.tobytes()
        assert np.array_equal(y, before)  # the right-hand side is not overwritten


def test_metric_solve_calls_no_scipy_solve_wrapper(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a scipy solve wrapper was called")

    monkeypatch.setattr(scipy.linalg, "cho_solve", refuse)
    monkeypatch.setattr(scipy.linalg, "cho_solve_banded", refuse)
    rng = np.random.default_rng(51)
    for s in (random_spd(rng, 200), banded_spd(rng, 200, 3)):
        y = rng.standard_normal((200, 5))
        x = MetricSpec(s).apply_inverse(None, y)
        assert _rel(s @ x, y) <= 1e-12
    # a dense-M pencil: the metric solve runs on every iteration
    a = np.diag(np.concatenate([np.arange(1.0, 41.0), -np.arange(20.0, 0.0, -1.0)]))
    problem = trace_min_problem(gallery("lehmer", 60), a, signature(3, 2))
    assert not problem.metric.matrix.banded
    record = solve(problem, make_point(problem.spec), SolverConfig(max_iter=20))
    assert record.n_iter == 20 and record.status == "max_iter"


def test_checked_solve_is_the_numpy_one_norm_formulation_bitwise():
    # the 1-norm is the column-sum reduction np.linalg.norm(b, 1) runs
    rng = np.random.default_rng(52)
    wide = rng.standard_normal((40, 60)) + 4.0 * np.eye(40, 60)
    square = np.ascontiguousarray(wide[:, :40])
    rhs = rng.standard_normal((40, 7))
    for b in (square, np.asfortranarray(square), wide[:, ::-1][:, 20:]):
        bc = np.ascontiguousarray(b, dtype=float)
        lu, piv, _ = dgetrf(bc)
        rcond, _ = dgecon(lu, np.linalg.norm(bc, 1), norm="1")
        x, _ = dgetrs(lu, piv, rhs)
        got_x, got_rcond = checked_solve(b, rhs)
        assert got_x.tobytes() == x.tobytes()
        assert np.float64(got_rcond).tobytes() == np.float64(rcond).tobytes()


def test_checked_solve_reads_the_condition_estimate_info(monkeypatch):
    # a non-finite system is a breakdown, never handed to dgecon, which
    # takes a non-finite norm for an illegal argument
    for bad in (np.nan, np.inf):
        b = np.eye(3)
        b[0, 1] = bad
        with pytest.raises(np.linalg.LinAlgError, match="not finite"):
            checked_solve(b, np.ones(3))
    # an illegal argument is a ValueError, not a singular system
    monkeypatch.setattr(linalg, "dgecon", lambda lu, anorm, norm: (1.0, -2))
    with pytest.raises(ValueError, match="gecon"):
        checked_solve(np.eye(3), np.ones(3))


def test_checked_solve_matches_dense():
    rng = np.random.default_rng(4)
    b = rng.standard_normal((8, 8)) + 8 * np.eye(8)
    rhs = rng.standard_normal((8, 3))
    x, rcond = checked_solve(b, rhs)
    assert np.allclose(b @ x, rhs, atol=1e-10)
    assert 0 < rcond <= 1.0


def test_checked_solve_rejects_singular():
    singular = np.ones((3, 3))
    with pytest.raises(np.linalg.LinAlgError):
        checked_solve(singular, np.eye(3))
    nearly = np.diag([1.0, 1e-18])
    with pytest.raises(np.linalg.LinAlgError):
        checked_solve(nearly, np.eye(2))


def test_mtx_roundtrip(tmp_path):
    rng = np.random.default_rng(5)
    a = sym(rng.standard_normal((6, 6)))
    dense = tmp_path / "dense.mtx"
    coord = tmp_path / "coord.mtx"
    scipy.io.mmwrite(str(dense), a)
    scipy.io.mmwrite(str(coord), scipy.sparse.coo_matrix(a))
    assert np.allclose(read_mtx(dense), a, atol=1e-12)
    assert np.allclose(read_mtx(coord), a, atol=1e-12)


def test_mtx_rejects_complex_entries(tmp_path):
    # a cast to float would drop the imaginary part with only a warning
    a = np.array([[2.0, 1.0j], [-1.0j, 3.0]])
    dense = tmp_path / "dense.mtx"
    coord = tmp_path / "coord.mtx"
    scipy.io.mmwrite(str(dense), a)
    scipy.io.mmwrite(str(coord), scipy.sparse.coo_matrix(a))
    for path in (dense, coord):
        with pytest.raises(ValueError, match="complex"):
            read_mtx(path)
