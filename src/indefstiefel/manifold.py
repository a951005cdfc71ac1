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

import numpy as np
import scipy.linalg

from .linalg import inertia, sign_counts, solve_lyapunov, sym


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
        a_eigvals = self._a_diag if self._a_diag is not None else np.linalg.eigvalsh(self.A)
        self.inertia_a = sign_counts(a_eigvals)
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


@dataclass(frozen=True)
class MetricSpec:
    """A tractable metric g_X(Z1, Z2) = tr(Z1^T M_X Z2).

    kind "euclidean": M_X = I.  kind "weighted": M_X = M constant, with a
    Cholesky factorization cached for applying M^{-1}.  The solver calls
    only :meth:`apply` and :meth:`apply_inverse`, so any object with those
    two methods can stand in for an X-dependent metric.
    """

    kind: str
    matrix: np.ndarray | None = None
    _chol: tuple | None = field(default=None, repr=False, compare=False)

    @staticmethod
    def euclidean() -> "MetricSpec":
        return MetricSpec(kind="euclidean")

    @staticmethod
    def weighted(m: np.ndarray) -> "MetricSpec":
        m = sym(np.asarray(m, dtype=float))
        try:
            chol = scipy.linalg.cho_factor(m)
        except np.linalg.LinAlgError as exc:
            raise ValueError("metric matrix is not positive definite") from exc
        return MetricSpec(kind="weighted", matrix=m, _chol=chol)

    def apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """M_X y at base point x."""
        if self.kind == "euclidean":
            return np.asarray(y, dtype=float)
        return self.matrix @ y

    def apply_inverse(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """M_X^{-1} y at base point x."""
        if self.kind == "euclidean":
            return np.asarray(y, dtype=float)
        # cho_factor checked the factor once; skip the O(n^2) recheck per solve
        return scipy.linalg.cho_solve(self._chol, y, check_finite=False)


def feasibility(spec: ManifoldSpec, x: np.ndarray) -> float:
    """Constraint residual ||X^T A X - J||_F."""
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(x.T @ spec.apply_a(x) - spec.J))


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
    (x,) = _points(spec, (pos_indices, neg_indices))
    return x


def _points(spec: ManifoldSpec, *selections) -> list[np.ndarray]:
    """make_point for each (pos_indices, neg_indices) pair, all from one
    eigendecomposition of A (n x n for a dense A)."""
    if spec._a_diag is None:
        w, v = np.linalg.eigh(spec.A)
    else:
        # A's eigenvectors are unit vectors e_i: keep their indices i, and
        # build only the columns picked below
        rows = np.argsort(spec._a_diag, kind="stable")
        w = spec._a_diag[rows]
    kp, km = spec.inertia_j.n_pos, spec.inertia_j.n_neg
    pos = np.flatnonzero(w > 0)
    neg = np.flatnonzero(w < 0)
    # orthogonal U with U^T J U = diag(I_kp, -I_km)
    wj, uj = np.linalg.eigh(spec.J)
    order = np.argsort(-wj)  # +1 eigenvalues first
    u = uj[:, order]
    points = []
    for pos_indices, neg_indices in selections:
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
        if spec._a_diag is None:
            frame = v[:, cols]
        else:
            # the layout and +0 entries of np.eye(n)[:, rows][:, cols], so that
            # frame @ u.T below runs the same BLAS arithmetic on any library
            frame = np.zeros((spec.n, len(cols)), order="F")
            frame[rows[cols], np.arange(len(cols))] = 1.0
        frame = frame / np.sqrt(np.abs(w[cols]))
        points.append(frame @ u.T)
    return points


def metric_inner(metric: MetricSpec, x: np.ndarray, z1: np.ndarray, z2: np.ndarray) -> float:
    """g_X(Z1, Z2) = tr(Z1^T M_X Z2)."""
    return float(np.vdot(z1, metric.apply(x, z2)))


def metric_norm(metric: MetricSpec, x: np.ndarray, z: np.ndarray) -> float:
    """Metric norm sqrt(g_X(Z, Z))."""
    return float(np.sqrt(max(metric_inner(metric, x, z, z), 0.0)))


def _project(ax: np.ndarray, mi_ax: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Y minus its normal component M_X^{-1} A X U, where U solves the
    Lyapunov equation S U + U S = 2 sym(X^T A Y) with the spd coefficient
    S = X^T A M_X^{-1} A X; ax = A X and mi_ax = M_X^{-1} A X."""
    s = sym(ax.T @ mi_ax)
    u = solve_lyapunov(s, 2.0 * sym(ax.T @ y))
    return y - mi_ax @ u


def riemannian_gradient(spec: ManifoldSpec, metric: MetricSpec, x: np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Riemannian gradient from the Euclidean gradient of f at x.

    grad f(X) = M_X^{-1} egrad - M_X^{-1} A X U with S U + U S =
    2 sym(X^T A M_X^{-1} egrad); equals the tangent projection of
    M_X^{-1} egrad.  M_X^{-1} is applied to [AX, egrad] in one solve.
    """
    egrad = np.asarray(egrad, dtype=float)
    ax = spec.apply_a(x)
    k = ax.shape[1]
    mi = metric.apply_inverse(x, np.hstack([ax, egrad]))
    return _project(ax, mi[:, :k], mi[:, k:])
