"""The paper's two objectives on the indefinite Stiefel manifold.

One is trace minimization for a symmetric-definite pencil (M, A) with M
positive definite and A indefinite nonsingular:

    min tr(X^T M X)  s.t.  X^T A X = J = diag(I_kp, -I_km),

whose optimal value is the sum of the kp smallest positive pencil
eigenvalues minus the sum of the km negative ones closest to zero, and whose
minimizers carry pencil eigenvectors.  The linear response eigenvalue
problem is this objective on a structured pencil.

The other is the matrix least-squares problem min ||G X - B||_F^2 on
iSt_{A,J}, a frame for constrained matrix equations G X = B; the Procrustes
fit on the J-orthogonal group is this objective on iSt_{J,J}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.linalg

from .linalg import SymOperator, signature, sym
from .manifold import ManifoldSpec, MetricSpec


@dataclass
class Problem:
    """Objective f with Euclidean gradient egrad on a manifold, plus metric.

    ``metric_grad`` maps X to M_X^{-1} egrad(X), the vector whose tangent
    projection is the Riemannian gradient; the factories give its closed
    form, and a Problem built without one applies the metric's inverse to
    egrad.  ``pencil_m`` is the M of tr(X^T M X) for trace minimization, the
    operator that f, egrad and the metric share (``.dense`` is its array),
    whose pencil is (pencil_m, spec.A); None for least squares.
    """

    spec: ManifoldSpec
    metric: MetricSpec
    f: Callable[[np.ndarray], float]
    egrad: Callable[[np.ndarray], np.ndarray]
    pencil_m: SymOperator | None = None
    metric_grad: Callable[[np.ndarray], np.ndarray] | None = None

    def __post_init__(self):
        if self.metric_grad is None:
            self.metric_grad = lambda x: self.metric.apply_inverse(x, self.egrad(x))


@dataclass
class PencilEigResult:
    """Eigenpair estimates extracted from a trace-minimization solution.

    lambda_plus ascending (kp entries), lambda_minus descending starting at
    the negative eigenvalue closest to zero (km entries); v holds the
    corresponding eigenvector estimates columnwise and rel_err is
    ||M V - A V D||_F / ||A V D||_F with D = diag(lambda_plus, lambda_minus).
    """

    lambda_plus: np.ndarray
    lambda_minus: np.ndarray
    v: np.ndarray
    rel_err: float


def _metric_for(choice: str, hessian: SymOperator, egrad: Callable, closed_form: Callable):
    """(metric, X -> M_X^{-1} egrad(X)) for ``choice``.

    "hessian" takes M_X = half the objective's constant Hessian, under which
    M_X^{-1} egrad has the closed form ``closed_form``; "euclidean" takes
    M_X = I, under which it is egrad.  Either way that Hessian must be
    positive definite, so the objective is strictly convex."""
    if choice not in ("euclidean", "hessian"):
        raise ValueError(f"unknown metric choice {choice!r}")
    weighted = MetricSpec(hessian)
    if choice == "hessian":
        return weighted, closed_form
    return MetricSpec(), egrad


def trace_min_problem(m: np.ndarray, a: np.ndarray, j: np.ndarray, metric: str = "hessian") -> Problem:
    """min tr(X^T M X) on iSt_{A,J}; metric "hessian" takes M_X = M.

    M must be symmetric positive definite (it is the constant objective
    Hessian, and the preferred metric) and of A's order.  The objective, the
    metric and ``pencil_m`` share one operator for M, banded or dense by its
    bandwidth.  Under M_X = M the gradient M^{-1} 2 M X is 2 X, so the solver
    never calls egrad.
    """
    spec, m_op = ManifoldSpec(a, j), SymOperator(m)
    if m_op.n != spec.n:
        raise ValueError(f"M is of order {m_op.n}, but A has order {spec.n}")

    def f(x: np.ndarray) -> float:
        return float(np.vdot(x, m_op @ x))

    def egrad(x: np.ndarray) -> np.ndarray:
        return 2.0 * (m_op @ x)

    met, grad = _metric_for(metric, m_op, egrad, lambda x: 2.0 * x)
    return Problem(spec=spec, metric=met, f=f, egrad=egrad, pencil_m=m_op, metric_grad=grad)


def extract_eigenpairs(problem: Problem, x: np.ndarray) -> PencilEigResult:
    """Pencil eigenpair estimates from a trace-minimization solution X.

    At a minimizer, B = X^T M X is block diagonal as diag(L+, -L-) in the
    splitting induced by J = diag(I_kp, -I_km): eigendecomposing the leading
    block gives the positive eigenvalue estimates, the trailing block
    negated gives the negative ones, and the eigenvector rotations applied
    to X's columns give pencil eigenvector estimates.  Any other J (a
    rotated signature, say) mixes the blocks, so it is rejected.  M and A
    are applied through the problem's operators, banded when narrow.
    """
    m, spec = problem.pencil_m, problem.spec
    if m is None:
        raise ValueError("the problem has no pencil: eigenpairs come from trace minimization")
    k_p, k_m, _ = spec.inertia_j
    if not np.array_equal(spec.J, signature(k_p, k_m)):
        raise ValueError(f"eigenpair extraction needs J = diag(I_{k_p}, -I_{k_m})")
    x = np.asarray(x, dtype=float)
    b = sym(x.T @ (m @ x))
    wp, qp = np.linalg.eigh(b[:k_p, :k_p])          # ascending
    wm, qm = np.linalg.eigh(b[k_p:, k_p:])          # ascending; block is -L-
    lam_plus = wp
    lam_minus = -wm                                  # descending, nearest zero first
    v = x @ scipy.linalg.block_diag(qp, qm)
    d = np.concatenate([lam_plus, lam_minus])
    avd = spec.apply_a(v) * d
    resid = m @ v - avd
    denom = np.linalg.norm(avd)
    rel_err = float(np.linalg.norm(resid) / denom) if denom > 0 else float("nan")
    return PencilEigResult(lambda_plus=lam_plus, lambda_minus=lam_minus, v=v, rel_err=rel_err)


def lrevp_problem(k_mat: np.ndarray, m_mat: np.ndarray, k: int, metric: str = "hessian") -> Problem:
    """Linear response eigenvalue problem as trace minimization.

    For symmetric positive definite K, M (order p) the pencil
    (H, G) with H = diag(K, M), G = [[0, I], [I, 0]] has eigenvalues
    +-sqrt(eig(K M)); minimizing tr(X^T H X) with X^T G X = I_k recovers the
    k smallest positive ones.  The metric choice "hessian" is M_X = H.
    """
    k_mat = np.asarray(k_mat, dtype=float)
    m_mat = np.asarray(m_mat, dtype=float)
    if k_mat.ndim != 2 or k_mat.shape != m_mat.shape or k_mat.shape[0] != k_mat.shape[1]:
        raise ValueError(f"K and M must be square of one order, got {k_mat.shape} and {m_mat.shape}")
    p = k_mat.shape[0]
    if not 1 <= k <= p:
        raise ValueError(f"need 1 <= k <= p, got k={k}, p={p}")
    zero, eye = np.zeros((p, p)), np.eye(p)
    g = np.block([[zero, eye], [eye, zero]])
    return trace_min_problem(scipy.linalg.block_diag(k_mat, m_mat), g, np.eye(k), metric)


def lrevp_initial_guess(p: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Feasible start [V; V]/sqrt(2) with V an orthonormal p x k frame."""
    v = np.linalg.qr(rng.standard_normal((p, k)))[0]
    return np.vstack([v, v]) / np.sqrt(2.0)


def matrix_equation_problem(g: np.ndarray, b: np.ndarray, spec: ManifoldSpec, metric: str = "hessian") -> Problem:
    """min ||G X - B||_F^2 on the caller's manifold ``spec`` = iSt_{A,J}.

    G is l x n with full column rank and B is l x k; metric "hessian" takes
    M_X = G^T G.  When G X* = B for a feasible X*, the equation is consistent
    and X* is the unique global minimizer, with objective zero.  Under
    M_X = G^T G the gradient is 2 (X - X_ls) with the unconstrained
    least-squares solution X_ls = (G^T G)^{-1} G^T B, computed by the
    metric's factorization on the first call, so the solver never calls
    egrad.
    """
    g = np.asarray(g, dtype=float)
    b = np.asarray(b, dtype=float)
    if g.ndim != 2 or g.shape[1] != spec.n:
        raise ValueError(f"G is {g.shape}, the manifold's points have {spec.n} rows")
    if b.shape != (g.shape[0], spec.k):
        raise ValueError(f"B is {b.shape}, G X is {(g.shape[0], spec.k)}")
    x_ls = None

    def f(x: np.ndarray) -> float:
        r = g @ x - b
        return float(np.vdot(r, r))

    def egrad(x: np.ndarray) -> np.ndarray:
        return 2.0 * (g.T @ (g @ x - b))

    def closed_form(x: np.ndarray) -> np.ndarray:
        nonlocal x_ls
        if x_ls is None:  # not at set-up, which stays one factorization
            x_ls = met.apply_inverse(x, g.T @ b)
        return 2.0 * (x - x_ls)

    met, grad = _metric_for(metric, SymOperator(g.T @ g), egrad, closed_form)
    return Problem(spec=spec, metric=met, f=f, egrad=egrad, metric_grad=grad)


def procrustes_problem(g: np.ndarray, b: np.ndarray, j: np.ndarray, metric: str = "hessian") -> Problem:
    """min ||G X - B||_F^2 over the J-orthogonal group iSt_{J,J}(n, n).

    G is l x n with full column rank, J an n x n signature matrix.  Metric
    "hessian" takes M_X = G^T G.
    """
    return matrix_equation_problem(g, b, ManifoldSpec(j, j), metric)


def pencil_oracle(m: np.ndarray, a: np.ndarray, k_p: int, k_m: int):
    """Dense reference eigensolve of the definite pencil (M, A).

    Returns (lambda_plus, lambda_minus, f_star): the k_p smallest positive
    pencil eigenvalues ascending, the k_m negative ones closest to zero
    descending, and the optimal trace value
    f* = sum(lambda_plus) - sum(lambda_minus).

    Works through the reversed problem A v = mu M v (M positive definite,
    so a standard symmetric-definite solve applies) with lambda = 1/mu.
    Rejects instances whose sign split is ambiguous: some |mu| below
    1e-10 * max|mu| (i.e. A numerically singular against the pencil scale).
    """
    m = sym(np.asarray(m, dtype=float))
    a = sym(np.asarray(a, dtype=float))
    try:
        mu = scipy.linalg.eigh(a, m, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        raise ValueError("pencil is not definite: M is not positive definite") from exc
    scale = np.max(np.abs(mu)) if mu.size else 0.0
    if scale == 0.0 or np.min(np.abs(mu)) < 1e-10 * scale:
        raise ValueError(
            "pencil sign split is ambiguous: eigenvalue magnitude below "
            "1e-10 of the pencil scale (A numerically singular)"
        )
    lam = 1.0 / mu
    pos = np.sort(lam[lam > 0])          # ascending
    neg = -np.sort(-lam[lam < 0])        # descending, nearest zero first
    if k_p > pos.size or k_m > neg.size:
        raise ValueError(
            f"pencil has {pos.size} positive / {neg.size} negative eigenvalues; "
            f"requested ({k_p}, {k_m})"
        )
    lam_plus = pos[:k_p]
    lam_minus = neg[:k_m]
    f_star = float(np.sum(lam_plus) - np.sum(lam_minus))
    return lam_plus, lam_minus, f_star
