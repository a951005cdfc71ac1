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

import numpy as np

from .linalg import SymOperator, solve_lyapunov, sym


class ManifoldSpec:
    """Validated pair (A, J) defining iSt_{A,J}(k, n).

    A and J are held as :class:`SymOperator` s, which symmetrize them and
    raise ValueError unless each is square; n and k are their orders, and
    k <= n is checked.  ``J`` is J's read-only array, read at construction
    (it is k x k); ``A`` is A's, which a banded A builds only when it is
    read.  Construction checks J^2 = I_k, with J applied through its
    operator (a row scaling for a diagonal J), which makes J nonsingular;
    checks that A is nonsingular; and checks the nonemptiness inequalities
    i_+(J) <= i_+(A), i_-(J) <= i_-(A), with each inertia from
    :meth:`SymOperator.inertia`, so a banded A or J gives its inertia from
    its band array.  A is applied banded or dense by its bandwidth, so a
    diagonal A (bandwidth 0) is a row scaling.  ``ManifoldSpec(j, j)`` (the
    J-orthogonal group) keeps one operator for both, and ``A is J``.
    """

    def __init__(self, a: np.ndarray, j: np.ndarray):
        self._a = SymOperator(a)
        self._j = self._a if j is a else SymOperator(j)
        self.n, self.k = self._a.n, self._j.n
        if self.k > self.n:
            raise ValueError(f"J order {self.k} exceeds A order {self.n}")
        self.J = self._j.dense
        jj_err = np.linalg.norm(self._j @ self.J - np.eye(self.k))
        if jj_err > 1e-12 * self.k:
            raise ValueError(f"J^2 != I_k (||J^2 - I||_F = {jj_err:.3e})")

        self.inertia_a = self._a.inertia()
        if self.inertia_a.n_zero > 0:
            raise ValueError("A is singular (zero eigenvalue within tolerance)")
        self.inertia_j = self._j.inertia()
        for sign, in_j, in_a in zip("+-", self.inertia_j, self.inertia_a):
            if in_j > in_a:
                raise ValueError(
                    f"manifold is empty: i{sign}(J) = {in_j} exceeds i{sign}(A) = {in_a}"
                )

    @property
    def A(self) -> np.ndarray:
        return self._a.dense

    def apply_a(self, x: np.ndarray) -> np.ndarray:
        """A x, equal bit for bit to ``A @ x`` for a diagonal or a dense A.

        A diagonal A scales rows.  The result is C-ordered whatever the
        order of x, and -0 entries become +0 as in the dense product: later
        products pick their BLAS kernel by memory order, and LAPACK's eigh
        picks Householder signs by the sign of zero, so either difference
        would change the iterates.  A wider banded A sums its diagonals,
        which matches the dense product to roundoff only.
        """
        return self._a @ x


class MetricSpec:
    """A tractable metric g_X(Z1, Z2) = tr(Z1^T M_X Z2).

    ``MetricSpec()`` is the Euclidean metric M_X = I.  ``MetricSpec(m)`` is
    M_X = M constant for an array or a :class:`SymOperator` m; an array
    becomes an operator (banded or dense by its bandwidth), kept as
    ``matrix``.  M is factored here, once, and construction raises
    ValueError unless M is positive definite: LDL^T when M is tridiagonal,
    Cholesky otherwise.  The solver calls only :meth:`apply` and
    :meth:`apply_inverse`, so any object with those two methods can stand
    in for an X-dependent metric.
    """

    def __init__(self, matrix: np.ndarray | SymOperator | None = None):
        if matrix is not None and not isinstance(matrix, SymOperator):
            matrix = SymOperator(matrix)
        self.matrix = matrix
        if matrix is not None:
            try:
                self._solve = matrix.cho_solver()
            except np.linalg.LinAlgError as exc:
                raise ValueError("metric matrix is not positive definite") from exc

    def apply(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """M_X y at base point x."""
        if self.matrix is None:
            return np.asarray(y, dtype=float)
        return self.matrix @ y

    def apply_inverse(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """M_X^{-1} y at base point x."""
        if self.matrix is None:
            return np.asarray(y, dtype=float)
        return self._solve(y)


def feasibility(spec: ManifoldSpec, x: np.ndarray, ax: np.ndarray | None = None) -> float:
    """Constraint residual ||X^T A X - J||_F; ax = A X when the caller has it."""
    x = np.asarray(x, dtype=float)
    if ax is None:
        ax = spec.apply_a(x)
    return float(np.linalg.norm(x.T @ ax - spec.J))


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
    diagonal = spec._a.bandwidth == 0
    if not diagonal:
        w, v = np.linalg.eigh(spec.A)
    else:
        # A's eigenvectors are unit vectors e_i: keep their indices i, and
        # build only the columns picked below; A 1 is A's diagonal, exactly
        a_diag = spec.apply_a(np.ones(spec.n))
        rows = np.argsort(a_diag, kind="stable")
        w = a_diag[rows]
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
    if not diagonal:
        frame = v[:, cols]
    else:
        # the layout and +0 entries of np.eye(n)[:, rows][:, cols], so that
        # frame @ u.T below runs the same BLAS arithmetic on any library
        frame = np.zeros((spec.n, len(cols)), order="F")
        frame[rows[cols], np.arange(len(cols))] = 1.0
    frame = frame / np.sqrt(np.abs(w[cols]))
    # orthogonal U with U^T J U = diag(I_kp, -I_km)
    wj, uj = np.linalg.eigh(spec.J)
    u = uj[:, np.argsort(-wj)]  # +1 eigenvalues first
    return frame @ u.T


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


def riemannian_gradient(
    spec: ManifoldSpec,
    metric: MetricSpec,
    x: np.ndarray,
    metric_grad: np.ndarray,
    ax: np.ndarray | None = None,
) -> np.ndarray:
    """Riemannian gradient of f at x from metric_grad = M_X^{-1} egrad.

    grad f(X) = M_X^{-1} egrad - M_X^{-1} A X U with S U + U S =
    2 sym(X^T A M_X^{-1} egrad), the tangent projection of metric_grad
    (``Problem.metric_grad``, in closed form for the factories' metrics).
    M_X^{-1} is applied to A X alone; ax = A X when the caller has it.
    """
    if ax is None:
        ax = spec.apply_a(x)
    return _project(ax, metric.apply_inverse(x, ax), np.asarray(metric_grad, dtype=float))
