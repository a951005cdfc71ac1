"""Symmetric linear algebra kernels.

Everything here operates on plain float64 ndarrays.  Symmetric matrices are
stored fully (both triangles); generators return exactly symmetric arrays,
i.e. ``S[i, j] == S[j, i]`` bitwise.  :class:`SymOperator` applies and
factors such a matrix in the form its bandwidth makes cheaper.
"""

from __future__ import annotations

import math
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse
from scipy.linalg import get_lapack_funcs
from scipy.linalg.lapack import dpttrf, dpttrs


class Inertia(NamedTuple):
    """Eigenvalue sign counts (n_pos, n_neg, n_zero) of a symmetric matrix."""

    n_pos: int
    n_neg: int
    n_zero: int


def _square(omega: np.ndarray) -> np.ndarray:
    """omega as a float array; raises ValueError unless it is a square matrix."""
    omega = np.asarray(omega, dtype=float)
    if omega.ndim != 2 or omega.shape[0] != omega.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {omega.shape}")
    return omega


def sym(omega: np.ndarray) -> np.ndarray:
    """Symmetric part (omega + omega^T)/2 of a square matrix."""
    omega = _square(omega)
    return 0.5 * (omega + omega.T)


def skew(omega: np.ndarray) -> np.ndarray:
    """Skew-symmetric part (omega - omega^T)/2 of a square matrix."""
    omega = _square(omega)
    return 0.5 * (omega - omega.T)


def bandwidth(s: np.ndarray) -> int:
    """Bandwidth of a square matrix: the largest |i - j| with S[i, j] != 0.

    Both triangles are scanned, so for any s the value bounds the bandwidth
    of sym(s) from above, and for a symmetric s it is that bandwidth.  A
    nonzero corner entry settles a dense matrix at once; otherwise one
    ``s != 0`` mask gives the first nonzero of each row and of each column.
    An all-zero row or column counts as full width, which only overstates
    the band.
    """
    n = s.shape[0]
    if n < 2 or s[n - 1, 0] != 0 or s[0, n - 1] != 0:
        return max(n - 1, 0)
    nonzero = s != 0
    first = np.minimum(np.argmax(nonzero, axis=1), np.argmax(nonzero, axis=0))
    return int(np.max(np.arange(n) - first))


def _banded(n: int, b: int) -> bool:
    """Whether the banded form is the cheaper one at order n and bandwidth b.

    With one BLAS thread (OpenBLAS 0.3.31 in numpy, 0.3.30 in scipy) on a
    2-core x86-64 VM, a product with n x 10 plus a solve with n x 10 costs
    the same in both forms near b = 16 (n = 200), 80 (n = 400) and 150
    (n = 2000).  The rule sits well below it at every measured size, and
    always takes a diagonal matrix as banded."""
    return 64 * b <= n


class SymOperator:
    """The symmetric matrix S = sym(s), applied and factored in one of two
    forms chosen from the order n and the bandwidth b of s alone.

    Construction is the one place that symmetrizes an input matrix.  The
    banded form reads S's diagonals straight from s, each as
    ``0.5 * (s_d + s_-d)``, the expression ``sym`` evaluates entry for
    entry, and trims from b the outer diagonals of S that are all zero (an
    antisymmetric part of s that cancels).  It keeps one (2b + 1) x n array
    of them, in DIA row order: ``S @ x`` scales the rows when b = 0 and is
    scipy's compiled DIA product otherwise; the factor is LAPACK's LDL^T of
    a tridiagonal matrix when b = 1 and a banded Cholesky factor otherwise.
    The dense form keeps S = sym(s) as an array, with b that of S: ``S @ x``
    is BLAS and the Cholesky factor is n x n.  ``dense`` is S, read-only,
    either way.  The banded form builds it on first read, with +0 off the
    band: bitwise sym(s) wherever s holds +0 there, as every ``test_matrix``
    and diagonal input does.  ``banded`` tells the form and ``n`` the order.
    """

    def __init__(self, s: np.ndarray):
        s = _square(s)
        n, b = s.shape[0], bandwidth(s)
        self.n, self.banded = n, _banded(n, b)
        if not self.banded:
            self.dense = s = sym(s)
            s.setflags(write=False)
            self.bandwidth = bandwidth(s)
            return
        diagonals = [0.5 * (np.diagonal(s, d) + np.diagonal(s, -d)) for d in range(b + 1)]
        while b and not diagonals[b].any():
            b -= 1
        self.bandwidth = b
        # row 2d - 1 holds offset +d shifted right by d, row 2d offset -d;
        # scipy's DIA kernel sums the rows in this order
        self._bands = np.zeros((2 * b + 1, n))
        self._bands[0] = diagonals[0]
        for d in range(1, b + 1):
            self._bands[2 * d - 1, d:] = self._bands[2 * d, :-d] = diagonals[d]
        if b:
            offsets = [0] + [o for d in range(1, b + 1) for o in (d, -d)]
            self._dia = scipy.sparse.dia_array((self._bands, offsets), shape=(n, n))

    @cached_property
    def dense(self) -> np.ndarray:
        """S, read-only, built from the band array on the banded form's first read."""
        s = np.zeros((self.n, self.n))
        idx = np.arange(self.n)
        s[idx, idx] = self._bands[0]
        for d in range(1, self.bandwidth + 1):
            s[idx[:-d], idx[d:]] = self._bands[2 * d - 1, d:]
            s[idx[d:], idx[:-d]] = self._bands[2 * d, :-d]
        s.setflags(write=False)
        return s

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        """S x.  The banded form returns a C-ordered array with +0 where the
        dense product has +0; with b = 0 it equals ``dense @ x`` bit for bit."""
        if not self.banded:
            return self.dense @ x
        if self.bandwidth:
            return self._dia @ x
        d = self._bands[0] if np.ndim(x) == 1 else self._bands[0, :, None]
        out = np.multiply(d, x, order="C")
        out += 0.0  # -0 becomes +0
        return out

    def _upper(self) -> np.ndarray:
        """LAPACK's upper band storage of a banded S: offsets +b, ..., +1, 0."""
        return self._bands[[*range(2 * self.bandwidth - 1, 0, -2), 0]]

    def inertia(self) -> Inertia:
        """Eigenvalue sign counts of S: from its diagonal when b = 0, from
        LAPACK's banded eigensolver (``eigvals_banded``) on the band array
        when b >= 1, and from ``eigvalsh`` in the dense form."""
        if not self.banded:
            return sign_counts(np.linalg.eigvalsh(self.dense))
        if self.bandwidth == 0:
            return sign_counts(self._bands[0])
        return sign_counts(scipy.linalg.eigvals_banded(self._upper()))

    def cho_solver(self) -> Callable[[np.ndarray], np.ndarray]:
        """y -> S^{-1} y through a factorization of S, computed here once;
        raises numpy.linalg.LinAlgError unless S is positive definite."""
        # the factorization checked S once; skip the recheck per solve
        if not self.banded:
            return partial(scipy.linalg.cho_solve, scipy.linalg.cho_factor(self.dense),
                           check_finite=False)
        if self.bandwidth == 1:
            bands = np.asarray_chkfinite(self._bands)  # dpttrf lets a NaN through
            d, e, info = dpttrf(bands[0], bands[1, 1:])
            if info != 0:
                raise np.linalg.LinAlgError(f"{info}-th leading minor not positive definite")
            return lambda y: dpttrs(d, e, y)[0]
        factor = (scipy.linalg.cholesky_banded(self._upper()), False)
        return partial(scipy.linalg.cho_solve_banded, factor, check_finite=False)


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
    if name == "tridiag":
        a = 2.0 * np.eye(n)
        sub = np.arange(n - 1)
        a[sub, sub + 1] = -1.0
        a[sub + 1, sub] = -1.0
        return a
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


RCOND_FLOOR = 1e-14


def checked_solve(b: np.ndarray, rhs: np.ndarray):
    """Solve b @ x = rhs with an explicit near-singularity report.

    Returns (x, rcond), rcond LAPACK's 1-norm reciprocal condition estimate.
    Raises numpy.linalg.LinAlgError when the LU factorization breaks down or
    rcond is not above RCOND_FLOOR; callers that treat singularity as control
    flow wrap this.
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
    if not rcond > RCOND_FLOOR:
        raise np.linalg.LinAlgError(
            f"linear system singular to working precision (rcond={rcond:.3e})"
        )
    x, info = getrs(lu, piv, rhs)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed (info={info})")
    return x, rcond


def read_mtx(path) -> np.ndarray:
    """Read a real Matrix Market file (array or coordinate) as a dense array.

    Symmetric storage is expanded to a full square array by the reader; a
    complex or a non-finite entry raises ValueError.
    """
    a = scipy.io.mmread(str(path))
    if scipy.sparse.issparse(a):
        a = a.toarray()
    if np.iscomplexobj(a):
        raise ValueError(f"complex entries in {path}")
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise ValueError(f"non-finite entries in {path}")
    return a
