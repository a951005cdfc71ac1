"""The paper's theory checks, which the solver never calls, as test oracles:
tangent vectors from the free parameterization, the Cayley retraction's
propositions, and a finite-difference check of the Riemannian gradient; and
the per-diagonal loop that defines a banded product's bits."""

from __future__ import annotations

import numpy as np
import scipy.linalg

from indefstiefel import CayleyCurve, ManifoldSpec, MetricSpec
from indefstiefel.linalg import skew
from indefstiefel.manifold import _project, metric_inner, riemannian_gradient


def dimension(spec: ManifoldSpec) -> int:
    """Manifold dimension nk - k(k+1)/2."""
    return spec.n * spec.k - spec.k * (spec.k + 1) // 2


def norm_a(spec: ManifoldSpec) -> float:
    """Spectral norm ||A||_2, the largest eigenvalue magnitude of A."""
    return float(np.max(np.abs(np.linalg.eigvalsh(spec.A))))


def solve_a(spec: ManifoldSpec, b: np.ndarray) -> np.ndarray:
    """A^{-1} b: a division by a diagonal A, else an LU solve."""
    b = np.asarray(b, dtype=float)
    if spec._a.bandwidth:
        return scipy.linalg.lu_solve(scipy.linalg.lu_factor(spec.A), b)
    d = np.diag(spec.A)
    return b / (d if b.ndim == 1 else d[:, None])


def banded_product(s: np.ndarray, b: int, x: np.ndarray) -> np.ndarray:
    """S x for S of bandwidth b, summed diagonal by diagonal in the order
    0, +1, -1, +2, -2, ...; C-ordered, with -0 turned into +0.  Diagonal d
    is read from above the main one for both of its sides."""
    column = (-1,) + (1,) * (np.ndim(x) - 1)  # a diagonal against the rows of x
    out = np.multiply(np.diagonal(s).reshape(column), x, order="C")
    for d in range(1, b + 1):
        upper = np.diagonal(s, d).reshape(column)
        out[:-d] += upper * x[d:]
        out[d:] += upper * x[:-d]
    out += 0.0
    return out


def tangency_residual(spec: ManifoldSpec, x: np.ndarray, z: np.ndarray) -> float:
    """||Z^T A X + X^T A Z||_F, zero exactly when Z is tangent at X."""
    z = np.asarray(z, dtype=float)
    ax = spec.apply_a(x)
    return float(np.linalg.norm(z.T @ ax + ax.T @ z))


def assemble_tangent(spec: ManifoldSpec, x: np.ndarray, s_skew: np.ndarray, k_free: np.ndarray) -> np.ndarray:
    """Tangent vector X (J s_skew) + A^{-1} X_perp k_free from free parameters.

    ``s_skew`` is k x k skew-symmetric (so W = J s_skew satisfies J W skew),
    ``k_free`` is (n-k) x k.  X_perp is an orthonormal basis of ker(X^T).
    """
    x = np.asarray(x, dtype=float)
    w = spec.J @ skew(s_skew)
    z = x @ w
    if spec.n > spec.k:
        x_perp = scipy.linalg.null_space(x.T)
        z = z + solve_a(spec, x_perp @ k_free)
    return z


def random_tangent(spec: ManifoldSpec, x: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Draw a random tangent vector at x (standard normal free parameters)."""
    s = rng.standard_normal((spec.k, spec.k))
    k_free = rng.standard_normal((spec.n - spec.k, spec.k))
    return assemble_tangent(spec, x, skew(s), k_free)


def project_tangent(spec: ManifoldSpec, metric: MetricSpec, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """g-orthogonal projection of an ambient Y onto the tangent space at x.

    The normal component is M_X^{-1} A X U where U solves the Lyapunov
    equation S U + U S = 2 sym(X^T A Y).
    """
    ax = spec.apply_a(x)
    return _project(ax, metric.apply_inverse(x, ax), np.asarray(y, dtype=float))


def s_matrix(spec: ManifoldSpec, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The skew matrix S_{X,Z} = X J Z^T A X J X^T - X J Z^T + Z J X^T.

    The k x k core Z^T A X is skew for tangent Z; it is re-skewed here so the
    assembled S is skew to roundoff even when Z carries a small tangency
    defect — exact skewness of S is what lets the Cayley transform preserve
    X^T A X along the whole curve.
    """
    x = np.asarray(x, dtype=float)
    z = np.asarray(z, dtype=float)
    xj = x @ spec.J
    core = skew(z.T @ spec.apply_a(x))
    return xj @ (core @ (spec.J @ x.T)) - xj @ z.T + z @ (spec.J @ x.T)


def cayley_radius_bound(norm_x: float, norm_j: float, norm_a: float) -> float:
    """Guaranteed-definedness radius 1/(||X||^3 ||J||^2 ||A||^2 + 2 ||X|| ||J|| ||A||)."""
    return 1.0 / (norm_x**3 * norm_j**2 * norm_a**2 + 2.0 * norm_x * norm_j * norm_a)


def definedness_radius(spec: ManifoldSpec, x: np.ndarray) -> float:
    """Radius delta such that R_X(Z) exists for every tangent ||Z||_2 < delta.

    Spectral norms throughout.  ||J||_2 = 1 whenever J^2 = I, but it is
    evaluated rather than assumed.
    """
    norm_x = float(np.linalg.norm(x, 2))
    norm_j = float(np.linalg.norm(spec.J, 2))
    return cayley_radius_bound(norm_x, norm_j, norm_a(spec))


def retraction_axioms_check(spec: ManifoldSpec, x: np.ndarray, z: np.ndarray, h: float) -> tuple[float, float]:
    """Residuals of the two retraction axioms at step h.

    r1 = ||R_X(0) - X||_F  (should be at solve roundoff), and
    r2 = ||(R_X(hZ) - X)/h - Z||_F  (O(h) as h -> 0).
    """
    curve = CayleyCurve(spec, x, z)
    z = np.asarray(z, dtype=float)
    r1 = float(np.linalg.norm(curve.at(0.0) - x))
    r2 = float(np.linalg.norm((curve.at(h) - x) / h - z))
    return r1, r2


def spectrum_is_imaginary(s: np.ndarray, a: np.ndarray, tol: float = 1e-10) -> bool:
    """Whether every eigenvalue of S A has |Re lambda| <= tol * ||S A||_2.

    True for any skew S paired with symmetric positive definite A, which is
    why the retraction is globally defined in that regime; indefinite A
    breaks it (a 2x2 instance of S A with real spectrum {+1, -1} exists).
    """
    sa = np.asarray(s, dtype=float) @ np.asarray(a, dtype=float)
    scale = float(np.linalg.norm(sa, 2))
    if scale == 0.0:
        return True
    w = np.linalg.eigvals(sa)
    return bool(np.max(np.abs(w.real)) <= tol * scale)


def second_order_defect(spec: ManifoldSpec, x: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The k x k matrix J X^T S_{X,Z} A Z.

    The Cayley curve's acceleration lies in the normal space exactly when
    this matrix is symmetric; an asymmetric instance witnesses that the
    retraction is not second order on this manifold.
    """
    z = np.asarray(z, dtype=float)
    s = s_matrix(spec, x, z)
    return spec.J @ (x.T @ (s @ spec.apply_a(z)))


def gradient_check(
    problem,
    x: np.ndarray,
    h: float,
    n_dirs: int = 20,
    rng: np.random.Generator | None = None,
) -> float:
    """Max relative finite-difference error of the Riemannian gradient at x.

    For sampled unit tangent directions Z compares the forward difference of
    f along the retraction against g_X(grad f, Z):
    |(f(R_X(hZ)) - f(X)) / h - g| / (1 + |g|).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    spec, metric = problem.spec, problem.metric
    f_x = problem.f(x)
    grad = riemannian_gradient(spec, metric, x, problem.metric_grad(x))
    worst = 0.0
    for _ in range(n_dirs):
        z = random_tangent(spec, x, rng)
        nz = np.linalg.norm(z)
        if nz == 0.0:
            continue
        z = z / nz
        g = metric_inner(metric, x, grad, z)
        f_h = problem.f(CayleyCurve(spec, x, z).at(h))
        err = abs((f_h - f_x) / h - g) / (1.0 + abs(g))
        worst = max(worst, err)
    return worst
