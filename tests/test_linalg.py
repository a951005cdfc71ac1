"""Symmetric linear algebra kernels: decompositions, Lyapunov solves, generators."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.io
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from indefstiefel import read_mtx, signature
from indefstiefel import test_matrix as gallery
from indefstiefel.linalg import (
    Inertia,
    checked_solve,
    random_rotation,
    sign_counts,
    skew,
    solve_lyapunov,
    sym,
)

from conftest import random_spd


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


def test_generator_entry_formulas():
    n = 6
    i, j = np.meshgrid(np.arange(1, n + 1), np.arange(1, n + 1), indexing="ij")
    assert np.allclose(gallery("lehmer", n), np.minimum(i, j) / np.maximum(i, j))
    assert np.allclose(gallery("minij", n), np.minimum(i, j))
    assert np.allclose(gallery("kms", n, 0.3), 0.3 ** np.abs(i - j))
    assert np.allclose(gallery("gcdmat", n), np.gcd.outer(np.arange(1, n + 1), np.arange(1, n + 1)))


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
