"""Cayley-transform retraction on the indefinite Stiefel manifold.

For a tangent Z at X the skew matrix
    S_{X,Z} = X J Z^T A X J X^T - X J Z^T + Z J X^T
satisfies S_{X,Z} A X = Z, and
    R_X(t Z) = cay((t/2) S_{X,Z} A) X
            = (I - (t/2) S_{X,Z} A)^{-1} (I + (t/2) S_{X,Z} A) X
is a retraction wherever the resolvent exists.  The transform is a
congruence: it keeps X^T A X whatever that matrix is, so roundoff drift in
feasibility only adds up along a run.  The "full" form solves the n x n
resolvent above.  The compact forms ("mid" and "econ", kept as names of the
same kernel) write S_{X,Z} = U C U^T with U = [X J, Z] and
C = [[skew(Z^T A X), -I], [I, 0]], and apply the Sherman-Morrison-Woodbury
identity (as in Wen & Yin, Math. Prog. 2013):
    R_X(t Z) = X + t U (I_2k - (t/2) C U^T A U)^{-1} C U^T A X,
one 2k x 2k solve per step size.  This is the same map as the full form at
any base point, feasible or not.

Unlike the orthogonal-A case, the map is not globally defined: the curve can
leave through a singularity of the resolvent in finite t.  All forms raise
WellDefinednessError when their linear system is singular to working
precision; callers treat that as "shrink the step", not as a crash.  By
Sylvester's determinant identity det(I_n - (t/2) S A) =
det(I_2k - (t/2) C U^T A U), so the compact system is singular exactly when
the n x n one is.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .linalg import checked_solve, skew, sym
from .manifold import ManifoldSpec, TangentVector, _value

__all__ = [
    "CayleyForm",
    "WellDefinednessError",
    "EconCache",
    "CayleyCurve",
    "s_matrix",
    "retract",
    "definedness_radius",
    "cayley_radius_bound",
    "retraction_axioms_check",
    "spectrum_is_imaginary",
    "second_order_defect",
    "default_form",
]

RCOND_FLOOR = 1e-14


class WellDefinednessError(RuntimeError):
    """The Cayley system is singular at this step size; the retraction is
    undefined there.  Normal control flow for line searches."""


class CayleyForm(str, enum.Enum):
    FULL = "full"
    MID = "mid"
    ECON = "econ"


def default_form(n: int, k: int) -> CayleyForm:
    """Econ pays off once k is small against n; full is the robust fallback."""
    return CayleyForm.ECON if 4 * k <= n else CayleyForm.FULL


def s_matrix(spec: ManifoldSpec, x: np.ndarray, z) -> np.ndarray:
    """The skew matrix S_{X,Z} = X J Z^T A X J X^T - X J Z^T + Z J X^T.

    The k x k core Z^T A X is skew for tangent Z; it is re-skewed here so the
    assembled S is skew to roundoff even when Z carries a small tangency
    defect — exact skewness of S is what lets the Cayley transform preserve
    X^T A X along the whole curve.
    """
    x = np.asarray(x, dtype=float)
    z = _value(z)
    xj = x @ spec.J
    core = skew(z.T @ spec.apply_a(x))
    return xj @ (core @ (spec.J @ x.T)) - xj @ z.T + z @ (spec.J @ x.T)


@dataclass
class EconCache:
    """The split Z = X M + Lambda of a tangent Z at a feasible X.

    x_plus = J X^T A satisfies x_plus @ X = I_k; M = x_plus @ Z;
    Lambda = Z - X M has x_plus @ Lambda = 0; lpl = Lambda+ Lambda.  These
    identities hold only when X^T A X = J exactly, which is why CayleyCurve
    does not use them: its compact forms must stay exact off the manifold.
    """

    x_plus: np.ndarray
    m: np.ndarray
    lam: np.ndarray
    lpl: np.ndarray

    @staticmethod
    def build(spec: ManifoldSpec, x: np.ndarray, z: np.ndarray) -> "EconCache":
        ax = spec.apply_a(x)
        x_plus = spec.J @ ax.T
        # J M = X^T A Z is skew for tangent Z; re-skew so the reduced forms
        # inherit the feasibility-preserving structure of the full transform
        m = spec.J @ skew(ax.T @ z)
        lam = z - x @ m
        lpl = spec.J @ (lam.T @ spec.apply_a(lam))
        return EconCache(x_plus=x_plus, m=m, lam=lam, lpl=lpl)


class CayleyCurve:
    """The curve t -> R_X(t Z) for fixed (X, Z), reusable across step sizes.

    Construction does the one-time O(n^2 k) work; ``at(t)`` then costs one
    linear solve of the form's size: n for "full", 2k for "mid" and "econ",
    which evaluate the same exact transform through the Woodbury identity.
    """

    def __init__(self, spec: ManifoldSpec, x: np.ndarray, z, form: CayleyForm | str | None = None):
        self.spec = spec
        self.x = np.asarray(x, dtype=float)
        self.z = _value(z)
        if form is None:
            form = default_form(spec.n, spec.k)
        self.form = CayleyForm(form)
        # the k x k core of S_{X,Z} is re-skewed as in s_matrix
        ax = spec.apply_a(self.x)
        az = spec.apply_a(self.z)
        core = skew(az.T @ self.x)
        if self.form is CayleyForm.FULL:
            # assemble S_{X,Z} A from rank-k pieces (never an n^3 product)
            xj = self.x @ spec.J
            jxta = spec.J @ ax.T
            self._sa = xj @ (core @ jxta) - xj @ az.T + self.z @ jxta
        else:
            # S_{X,Z} = U C U^T; keep C U^T A U and C U^T A X for the 2k solve
            k = self.x.shape[1]
            eye = np.eye(k)
            self._u = np.hstack([self.x @ spec.J, self.z])
            c = np.block([[core, -eye], [eye, np.zeros((k, k))]])
            self._cg = c @ (self._u.T @ np.hstack([ax @ spec.J, az]))
            self._cv = c @ (self._u.T @ ax)

    def at(self, t: float) -> np.ndarray:
        """Evaluate the curve; raises WellDefinednessError at singular t."""
        t = float(t)
        try:
            if self.form is CayleyForm.FULL:
                b = np.eye(self.x.shape[0]) - (0.5 * t) * self._sa
                rhs = self.x + (0.5 * t) * (self._sa @ self.x)
                out, _ = checked_solve(b, rhs, RCOND_FLOOR)
                return out
            b = np.eye(self._cg.shape[0]) - (0.5 * t) * self._cg
            w, _ = checked_solve(b, self._cv, RCOND_FLOOR)
            return self.x + t * (self._u @ w)
        except np.linalg.LinAlgError as exc:
            raise WellDefinednessError(
                f"Cayley retraction undefined at t={t:.6g} ({self.form.value} form): {exc}"
            ) from exc


def retract(spec: ManifoldSpec, x: np.ndarray, z, t: float, form: CayleyForm | str | None = None) -> np.ndarray:
    """One-shot R_X(t Z); see CayleyCurve for amortized repeated evaluation."""
    return CayleyCurve(spec, x, z, form).at(t)


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
    return cayley_radius_bound(norm_x, norm_j, spec.norm_a)


def retraction_axioms_check(
    spec: ManifoldSpec, x: np.ndarray, z, h: float, form: CayleyForm | str | None = None
) -> tuple[float, float]:
    """Residuals of the two retraction axioms at step h.

    r1 = ||R_X(0) - X||_F  (should be at solve roundoff), and
    r2 = ||(R_X(hZ) - X)/h - Z||_F  (O(h) as h -> 0).
    """
    curve = CayleyCurve(spec, x, z, form)
    z = _value(z)
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


def second_order_defect(spec: ManifoldSpec, x: np.ndarray, z) -> np.ndarray:
    """The k x k matrix J X^T S_{X,Z} A Z.

    The Cayley curve's acceleration lies in the normal space exactly when
    this matrix is symmetric; an asymmetric instance witnesses that the
    retraction is not second order on this manifold.
    """
    z = _value(z)
    s = s_matrix(spec, x, z)
    return spec.J @ (x.T @ (s @ spec.apply_a(z)))
