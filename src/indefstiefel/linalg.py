"""Dense symmetric linear algebra kernels.

Everything here operates on plain float64 ndarrays.  Symmetric matrices are
stored fully (both triangles); generators return exactly symmetric arrays,
i.e. ``S[i, j] == S[j, i]`` bitwise.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np
import scipy.io
import scipy.sparse
from scipy.linalg import get_lapack_funcs


class Inertia(NamedTuple):
    """Eigenvalue sign counts (n_pos, n_neg, n_zero) of a symmetric matrix."""

    n_pos: int
    n_neg: int
    n_zero: int


def sym(omega: np.ndarray) -> np.ndarray:
    """Symmetric part (omega + omega^T)/2 of a square matrix."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {omega.shape}")
    return 0.5 * (omega + omega.T)


def skew(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric part (omega - omega^T)/2 of a square matrix."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {omega.shape}")
    return 0.5 * (omega - omega.T)


def sign_counts(w: np.ndarray, tol: float = 1e-12) -> Inertia:
    """Inertia of a symmetric matrix from its eigenvalues w.

    An eigenvalue counts as zero when |lambda| <= tol * max |w|.
    """
    thresh = tol * (np.max(np.abs(w)) if w.size else 0.0)
    n_pos = int(np.count_nonzero(w > thresh))
    n_neg = int(np.count_nonzero(w < -thresh))
    return Inertia(n_pos, n_neg, w.size - n_pos - n_neg)


def solve_lyapunov(s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Solve S U + U S = C for symmetric U, with S symmetric positive definite.

    Uses the eigendecomposition S = Q diag(w) Q^T: in the eigenbasis the
    equation decouples entrywise into (w_i + w_j) U~_ij = C~_ij.

    Raises ValueError if S has a non-positive eigenvalue (within a relative
    tolerance of 1e-12).
    """
    s = np.asarray(s, dtype=float)
    c = np.asarray(c, dtype=float)
    if s.shape != c.shape or s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError(f"shape mismatch: S {s.shape}, C {c.shape}")
    w, q = np.linalg.eigh(s)
    if w.size and w[0] <= 1e-12 * abs(w[-1]):
        raise ValueError(
            f"Lyapunov coefficient matrix is not positive definite "
            f"(smallest eigenvalue {w[0]:.3e})"
        )
    c_t = q.T @ c @ q
    u_t = c_t / np.add.outer(w, w)
    return sym(q @ u_t @ q.T)


def test_matrix(name: str, n: int, param: float | None = None) -> np.ndarray:
    """Build a named symmetric positive definite test matrix of order n.

    Supported names: ``lehmer`` min(i,j)/max(i,j); ``minij`` min(i,j);
    ``kms`` rho^|i-j| (param rho, 0 < |rho| < 1); ``gcdmat`` gcd(i, j);
    ``moler`` U^T U with U unit upper triangular, param alpha strictly above
    the diagonal; ``tridiag`` the (-1, 2, -1) second-difference matrix.
    Indices i, j are 1-based.
    """
    if n < 1:
        raise ValueError(f"matrix order must be positive, got n={n}")
    idx = np.arange(1, n + 1)
    i, j = np.meshgrid(idx, idx, indexing="ij")
    if name == "lehmer":
        return np.minimum(i, j) / np.maximum(i, j)
    if name == "minij":
        return np.minimum(i, j).astype(float)
    if name == "kms":
        if param is None:
            raise ValueError("kms requires a parameter rho")
        rho = float(param)
        if not 0.0 < abs(rho) < 1.0:
            raise ValueError(f"kms parameter must satisfy 0 < |rho| < 1, got {rho}")
        return rho ** np.abs(i - j).astype(float)
    if name == "gcdmat":
        return np.gcd(i, j).astype(float)
    if name == "moler":
        if param is None:
            raise ValueError("moler requires a parameter alpha")
        alpha = float(param)
        if not math.isfinite(alpha):
            raise ValueError(f"moler parameter must be finite, got {alpha}")
        # closed form of U^T U: alpha^2 (min(i,j)-1) off the diagonal
        a = alpha * alpha * (np.minimum(i, j) - 1).astype(float)
        off = np.full((n, n), alpha)
        np.fill_diagonal(off, 1.0)
        return a + off
    if name == "tridiag":
        a = 2.0 * np.eye(n)
        sub = np.arange(n - 1)
        a[sub, sub + 1] = -1.0
        a[sub + 1, sub] = -1.0
        return a
    raise ValueError(f"unknown test matrix {name!r}")


def signature(kp: int, km: int) -> np.ndarray:
    """The signature matrix J = diag(I_kp, -I_km)."""
    return np.diag(np.concatenate([np.ones(kp), -np.ones(km)]))


def random_rotation(size: int, rng: np.random.Generator) -> np.ndarray:
    """Random orthogonal matrix with determinant +1: the Q factor of a
    standard normal draw, first column negated when det Q = -1."""
    q = np.linalg.qr(rng.standard_normal((size, size)))[0]
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def checked_solve(b: np.ndarray, rhs: np.ndarray, rcond_floor: float = 1e-14):
    """Solve b @ x = rhs with an explicit near-singularity report.

    Returns (x, rcond).  Raises numpy.linalg.LinAlgError when the LU
    factorization breaks down or the 1-norm condition estimate exceeds
    1/rcond_floor; callers that treat singularity as control flow wrap this.
    """
    b = np.ascontiguousarray(b, dtype=float)
    rhs = np.asarray(rhs, dtype=float)
    getrf, gecon, getrs = get_lapack_funcs(("getrf", "gecon", "getrs"), (b,))
    anorm = np.linalg.norm(b, 1)
    lu, piv, info = getrf(b)
    if info > 0:
        raise np.linalg.LinAlgError("exactly singular linear system")
    if info < 0:
        raise ValueError(f"illegal argument to getrf (info={info})")
    rcond, _ = gecon(lu, anorm, norm="1")
    if not rcond > rcond_floor:
        raise np.linalg.LinAlgError(
            f"linear system singular to working precision (rcond={rcond:.3e})"
        )
    x, info = getrs(lu, piv, rhs)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
    return x, rcond


def read_mtx(path) -> np.ndarray:
    """Read a real Matrix Market file (array or coordinate) as a dense array.

    Symmetric storage is expanded to a full square array by the reader.
    """
    a = scipy.io.mmread(str(path))
    if scipy.sparse.issparse(a):
        a = a.toarray()
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite entries in {path}")
    return a
