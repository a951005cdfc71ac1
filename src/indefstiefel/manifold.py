"""The indefinite Stiefel manifold and tractable-metric geometry.

iSt_{A,J}(k, n) = {X in R^{n x k} : X^T A X = J} for a symmetric nonsingular
(possibly indefinite) A and a symmetric J with J^2 = I_k.  The set is
nonempty exactly when the positive and negative eigenvalue counts of J are
dominated by those of A; its dimension is nk - k(k+1)/2.

Tangent vectors at X are the Z with Z^T A X + X^T A Z = 0, equivalently
Z = X W + A^{-1} X_perp K with J W skew-symmetric.  Riemannian structure
comes from a "tractable" metric g_X(Z1, Z2) = tr(Z1^T M_X Z2) with M_X
symmetric positive definite; projections onto tangent/normal space then
reduce to one small Lyapunov solve with the positive definite coefficient
S = X^T A M_X^{-1} A X.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg

from .linalg import inertia, sign_counts, skew, solve_lyapunov, sym

__all__ = [
    "ManifoldSpec",
    "MetricSpec",
    "TangentVector",
    "feasibility",
    "make_point",
    "assemble_tangent",
    "random_tangent",
    "tangency_residual",
    "metric_inner",
    "metric_norm",
    "project_tangent",
    "riemannian_gradient",
]


def _readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, dtype=float)
    a.setflags(write=False)
    return a


class ManifoldSpec:
    """Validated pair (A, J) defining iSt_{A,J}(k, n).

    Construction symmetrizes the inputs, checks J^2 = I_k, checks that A is
    nonsingular, and checks the nonemptiness inequalities
    i_+(J) <= i_+(A), i_-(J) <= i_-(A).  A diagonal A is detected once and
    held as its diagonal vector, so :meth:`apply_a` and :meth:`solve_a` are
    row scalings; any other A gets a cached LU factorization so A^{-1} is
    applied, never formed.  The dense ``A`` attribute stays for inspection.
    """

    def __init__(self, a: np.ndarray, j: np.ndarray):
        a = np.asarray(a, dtype=float)
        j = np.asarray(j, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"A must be square, got shape {a.shape}")
        if j.ndim != 2 or j.shape[0] != j.shape[1]:
            raise ValueError(f"J must be square, got shape {j.shape}")
        self.n = a.shape[0]
        self.k = j.shape[0]
        if self.k > self.n:
            raise ValueError(f"J order {self.k} exceeds A order {self.n}")
        self.A = _readonly(sym(a))
        self.J = _readonly(sym(j))
        jj_err = np.linalg.norm(self.J @ self.J - np.eye(self.k))
        if jj_err > 1e-12 * self.k:
            raise ValueError(f"J^2 != I_k (||J^2 - I||_F = {jj_err:.3e})")

        # the diagonal of a diagonal A, else None
        self._a_diag = np.diag(self.A) if self._is_diagonal(self.A) else None

        if self._a_diag is not None:
            self._a_eigvals = self._a_diag
            self._a_eigvecs = None  # identity columns, materialized lazily
        else:
            self._a_eigvals = np.linalg.eigvalsh(self.A)
            self._a_eigvecs = None

        self.norm_a = float(np.max(np.abs(self._a_eigvals)))
        self.inertia_a = sign_counts(self._a_eigvals)
        if self.inertia_a.n_zero > 0:
            raise ValueError("A is singular (zero eigenvalue within tolerance)")
        self.inertia_j = inertia(self.J)
        if self.inertia_j.n_zero > 0:
            raise ValueError("J is singular, cannot satisfy J^2 = I")
        if self.inertia_j.n_pos > self.inertia_a.n_pos:
            raise ValueError(
                f"manifold is empty: i+(J) = {self.inertia_j.n_pos} exceeds "
                f"i+(A) = {self.inertia_a.n_pos}"
            )
        if self.inertia_j.n_neg > self.inertia_a.n_neg:
            raise ValueError(
                f"manifold is empty: i-(J) = {self.inertia_j.n_neg} exceeds "
                f"i-(A) = {self.inertia_a.n_neg}"
            )
        self._lu = None if self._a_diag is not None else scipy.linalg.lu_factor(self.A)

    @staticmethod
    def _is_diagonal(a: np.ndarray) -> bool:
        # every nonzero entry lies on the diagonal
        return np.count_nonzero(a) == np.count_nonzero(np.diag(a))

    @property
    def dim(self) -> int:
        """Manifold dimension nk - k(k+1)/2."""
        return self.n * self.k - self.k * (self.k + 1) // 2

    def _column(self, x: np.ndarray) -> np.ndarray:
        """The diagonal of A shaped to scale the rows of x."""
        return self._a_diag if np.ndim(x) == 1 else self._a_diag[:, None]

    def apply_a(self, x: np.ndarray) -> np.ndarray:
        """A x, as a C-ordered array equal bit for bit to ``A @ x``.

        A diagonal A scales rows.  The result is C-ordered whatever the
        order of x, and -0 entries become +0 as in the dense product: later
        products pick their BLAS kernel by memory order, and LAPACK's eigh
        picks Householder signs by the sign of zero, so either difference
        would change the iterates.
        """
        if self._a_diag is None:
            return self.A @ x
        out = np.multiply(self._column(x), x, order="C")
        out += 0.0
        return out

    def solve_a(self, b: np.ndarray) -> np.ndarray:
        """Apply A^{-1} to the columns of b: a division by a diagonal A,
        else the cached LU factorization."""
        if self._a_diag is None:
            return scipy.linalg.lu_solve(self._lu, b)
        return np.asarray(b, dtype=float) / self._column(b)

    def a_eigendecomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenpairs of A (ascending), computing and caching vectors lazily."""
        if self._a_eigvecs is None:
            if self._a_diag is not None:
                order = np.argsort(self._a_eigvals, kind="stable")
                self._a_eigvals = self._a_eigvals[order]
                self._a_eigvecs = np.eye(self.n)[:, order]
            else:
                self._a_eigvals, self._a_eigvecs = np.linalg.eigh(self.A)
        return self._a_eigvals, self._a_eigvecs


@dataclass
class TangentVector:
    """A tangent vector ``value`` anchored at the base point ``base``."""

    base: np.ndarray
    value: np.ndarray

    @property
    def shape(self):
        return self.value.shape


def _value(z) -> np.ndarray:
    return z.value if isinstance(z, TangentVector) else np.asarray(z, dtype=float)


def _check_base(x: np.ndarray, z) -> np.ndarray:
    if isinstance(z, TangentVector) and not np.array_equal(z.base, x):
        raise ValueError("tangent vector is anchored at a different base point")
    return _value(z)


@dataclass(frozen=True)
class MetricSpec:
    """A tractable metric g_X(Z1, Z2) = tr(Z1^T M_X Z2).

    kind "euclidean": M_X = I.  kind "weighted": M_X = M constant, with a
    Cholesky factorization cached for applying M^{-1}.  kind "pointwise":
    M_X produced by a callback at each base point (factorized per call).
    """

    kind: str
    matrix: np.ndarray | None = None
    matrix_fn: Callable[[np.ndarray], np.ndarray] | None = None
    _chol: tuple | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def euclidean() -> "MetricSpec":
        return MetricSpec(kind="euclidean")

    @staticmethod
    def weighted(m: np.ndarray) -> "MetricSpec":
        m = sym(np.asarray(m, dtype=float))
        try:
            chol = scipy.linalg.cho_factor(m)
        except np.linalg.LinAlgError as exc:  # pragma: no cover - scipy raises its own
            raise ValueError("metric matrix is not positive definite") from exc
        except scipy.linalg.LinAlgError as exc:
            raise ValueError("metric matrix is not positive definite") from exc
        return MetricSpec(kind="weighted", matrix=m, _chol=chol)

    @staticmethod
    def pointwise(fn: Callable[[np.ndarray], np.ndarray]) -> "MetricSpec":
        return MetricSpec(kind="pointwise", matrix_fn=fn)

    def apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """M_X y at base point x."""
        if self.kind == "euclidean":
            return np.asarray(y, dtype=float)
        if self.kind == "weighted":
            return self.matrix @ y
        return self.matrix_fn(x) @ y

    def apply_inverse(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """M_X^{-1} y at base point x."""
        if self.kind == "euclidean":
            return np.asarray(y, dtype=float)
        # cho_factor checked the factor once; skip the O(n^2) recheck per solve
        if self.kind == "weighted":
            return scipy.linalg.cho_solve(self._chol, y, check_finite=False)
        m = sym(self.matrix_fn(x))
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(m), y, check_finite=False)


def feasibility(spec: ManifoldSpec, x: np.ndarray) -> float:
    """Constraint residual ||X^T A X - J||_F."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x.T @ spec.apply_a(x) - spec.J))


def tangency_residual(spec: ManifoldSpec, x: np.ndarray, z) -> float:
    """||Z^T A X + X^T A Z||_F, zero exactly when Z is tangent at X."""
    z = _value(z)
    ax = spec.apply_a(x)
    return float(np.linalg.norm(z.T @ ax + ax.T @ z))


def make_point(
    spec: ManifoldSpec,
    pos_indices=None,
    neg_indices=None,
) -> np.ndarray:
    """Construct a feasible point from scaled eigenvectors of A.

    Picks i_+(J) eigenvectors of A with positive eigenvalues and i_-(J) with
    negative ones, scales each v_i by |lambda_i|^{-1/2} so the frame V
    satisfies V^T A V = diag(I, -I), and recombines by the orthogonal U that
    diagonalizes J.  Index arguments select among the positive (resp.
    negative) eigendirections in ascending-eigenvalue order; by default the
    directions of smallest magnitude eigenvalues are used.
    """
    w, v = spec.a_eigendecomposition()
    kp, km = spec.inertia_j.n_pos, spec.inertia_j.n_neg
    pos = np.flatnonzero(w > 0)
    neg = np.flatnonzero(w < 0)
    if pos_indices is None:
        pos_indices = np.argsort(w[pos])[:kp]  # smallest positive eigenvalues
    if neg_indices is None:
        neg_indices = np.argsort(-w[neg])[:km]  # negative ones closest to zero
    pos_indices = np.asarray(pos_indices, dtype=int)
    neg_indices = np.asarray(neg_indices, dtype=int)
    if len(pos_indices) != kp or len(neg_indices) != km:
        raise ValueError(
            f"need exactly {kp} positive and {km} negative directions, "
            f"got {len(pos_indices)} and {len(neg_indices)}"
        )
    cols = np.concatenate([pos[pos_indices], neg[neg_indices]])
    if len(set(cols.tolist())) != len(cols):
        raise ValueError("duplicate eigendirection selected")
    frame = v[:, cols] / np.sqrt(np.abs(w[cols]))

    # orthogonal U with U^T J U = diag(I_kp, -I_km)
    wj, uj = np.linalg.eigh(spec.J)
    order = np.argsort(-wj)  # +1 eigenvalues first
    u = uj[:, order]
    return frame @ u.T


def assemble_tangent(spec: ManifoldSpec, x: np.ndarray, s_skew: np.ndarray, k_free: np.ndarray) -> TangentVector:
    """Tangent vector X (J s_skew) + A^{-1} X_perp k_free from free parameters.

    ``s_skew`` is k x k skew-symmetric (so W = J s_skew satisfies J W skew),
    ``k_free`` is (n-k) x k.  X_perp is an orthonormal basis of ker(X^T).
    """
    x = np.asarray(x, dtype=float)
    w = spec.J @ skew(s_skew)
    z = x @ w
    if spec.n > spec.k:
        x_perp = scipy.linalg.null_space(x.T)
        z = z + spec.solve_a(x_perp @ k_free)
    return TangentVector(base=x, value=z)


def random_tangent(spec: ManifoldSpec, x: np.ndarray, rng: np.random.Generator) -> TangentVector:
    """Draw a random tangent vector at x (standard normal free parameters)."""
    s = rng.standard_normal((spec.k, spec.k))
    k_free = rng.standard_normal((spec.n - spec.k, spec.k))
    return assemble_tangent(spec, x, skew(s), k_free)


def metric_inner(metric: MetricSpec, x: np.ndarray, z1, z2) -> float:
    """g_X(Z1, Z2) = tr(Z1^T M_X Z2)."""
    z1 = _check_base(x, z1)
    z2 = _check_base(x, z2)
    return float(np.vdot(z1, metric.apply(x, z2)))


def metric_norm(metric: MetricSpec, x: np.ndarray, z) -> float:
    """Metric norm sqrt(g_X(Z, Z))."""
    return float(np.sqrt(max(metric_inner(metric, x, z, z), 0.0)))


def _lyap_pieces(spec: ManifoldSpec, metric: MetricSpec, x: np.ndarray):
    """Shared quantities for projections: AX, M_X^{-1} A X, and the spd
    Lyapunov coefficient S = X^T A M_X^{-1} A X."""
    ax = spec.apply_a(x)
    mi_ax = metric.apply_inverse(x, ax)
    s = sym(ax.T @ mi_ax)
    return ax, mi_ax, s


def project_tangent(spec: ManifoldSpec, metric: MetricSpec, x: np.ndarray, y: np.ndarray) -> TangentVector:
    """g-orthogonal projection of an ambient Y onto the tangent space at x.

    The normal component is M_X^{-1} A X U where U solves the Lyapunov
    equation S U + U S = 2 sym(X^T A Y).
    """
    y = _value(y)
    ax, mi_ax, s = _lyap_pieces(spec, metric, x)
    u = solve_lyapunov(s, 2.0 * sym(ax.T @ y))
    return TangentVector(base=x, value=y - mi_ax @ u)


def riemannian_gradient(spec: ManifoldSpec, metric: MetricSpec, x: np.ndarray, egrad: np.ndarray) -> TangentVector:
    """Riemannian gradient from the Euclidean gradient of f at x.

    grad f(X) = M_X^{-1} egrad - M_X^{-1} A X U with S U + U S =
    2 sym(X^T A M_X^{-1} egrad); equals the tangent projection of
    M_X^{-1} egrad.  M_X^{-1} is applied to [AX, egrad] in one solve.
    """
    egrad = np.asarray(egrad, dtype=float)
    ax = spec.apply_a(x)
    k = ax.shape[1]
    mi = metric.apply_inverse(x, np.hstack([ax, egrad]))
    mi_ax, w1 = mi[:, :k], mi[:, k:]
    s = sym(ax.T @ mi_ax)
    u = solve_lyapunov(s, 2.0 * sym(ax.T @ w1))
    return TangentVector(base=x, value=w1 - mi_ax @ u)
