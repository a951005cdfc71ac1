"""Cayley-transform retraction on the indefinite Stiefel manifold.

For a tangent Z at X the skew matrix
    S_{X,Z} = X J Z^T A X J X^T - X J Z^T + Z J X^T
satisfies S_{X,Z} A X = Z, and
    R_X(t Z) = cay((t/2) S_{X,Z} A) X
            = (I - (t/2) S_{X,Z} A)^{-1} (I + (t/2) S_{X,Z} A) X
is a retraction wherever the resolvent exists.  The transform is a
congruence: it keeps X^T A X whatever that matrix is, so roundoff drift in
feasibility only adds up along a run.  It is evaluated by one of two kernels,
picked from the shape (n, k) alone.  The dense kernel solves the n x n
resolvent above.  The Woodbury kernel writes S_{X,Z} = U C U^T with
U = [X J, Z] and C = [[skew(Z^T A X), -I], [I, 0]], and applies the
Sherman-Morrison-Woodbury identity (as in Wen & Yin, Math. Prog. 2013):
    R_X(t Z) = X + t U (I_2k - (t/2) C U^T A U)^{-1} C U^T A X,
one 2k x 2k solve per step size.  Both compute the same map at any base
point, feasible or not.

Unlike the orthogonal-A case, the map is not globally defined: the curve can
leave through a singularity of the resolvent in finite t.  Either kernel
raises WellDefinednessError when its linear system is singular to working
precision; callers treat that as "shrink the step", not as a crash.  By
Sylvester's determinant identity det(I_n - (t/2) S A) =
det(I_2k - (t/2) C U^T A U), so the 2k x 2k system is singular exactly when
the n x n one is.
"""

from __future__ import annotations

import numpy as np

from .linalg import checked_solve, skew
from .manifold import ManifoldSpec


RCOND_FLOOR = 1e-14


class WellDefinednessError(RuntimeError):
    """The Cayley system is singular at this step size; the retraction is
    undefined there.  Normal control flow for line searches."""


def _woodbury(n: int, k: int) -> bool:
    """Whether the 2k x 2k Woodbury kernel is the cheaper one at width k: with
    one BLAS thread, a curve's build plus 1.2 evaluations costs the same on
    both kernels near k = n/2.9 (n = 50) to n/2.2 (n = 1000); at k = n the
    dense n x n kernel is about 3x cheaper."""
    return 3 * k <= n


class CayleyCurve:
    """The curve t -> R_X(t Z) for fixed (X, Z), reusable across step sizes.

    Construction does the one-time O(n^2 k) work; ``at(t)`` then costs one
    linear solve: 2k x 2k through the Woodbury identity when k is small
    against n, else the n x n resolvent.
    """

    def __init__(self, spec: ManifoldSpec, x: np.ndarray, z: np.ndarray):
        self.x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        # the k x k core Z^T A X is skew for tangent Z; re-skewing it keeps S
        # skew to roundoff when Z carries a small tangency defect, and exact
        # skewness is what makes the transform preserve X^T A X
        ax = spec.apply_a(self.x)
        az = spec.apply_a(z)
        core = skew(az.T @ self.x)
        self._sa = None
        if _woodbury(spec.n, spec.k):
            # S_{X,Z} = U C U^T; keep C U^T A U and C U^T A X for the 2k solve
            k = self.x.shape[1]
            eye = np.eye(k)
            self._u = np.hstack([self.x @ spec.J, z])
            c = np.block([[core, -eye], [eye, np.zeros((k, k))]])
            self._cg = c @ (self._u.T @ np.hstack([ax @ spec.J, az]))
            self._cv = c @ (self._u.T @ ax)
        else:
            # assemble S_{X,Z} A from rank-k pieces (never an n^3 product)
            xj = self.x @ spec.J
            jxta = spec.J @ ax.T
            self._sa = xj @ (core @ jxta) - xj @ az.T + z @ jxta

    def at(self, t: float) -> np.ndarray:
        """Evaluate the curve; raises WellDefinednessError at singular t."""
        t = float(t)
        try:
            if self._sa is not None:
                b = np.eye(self.x.shape[0]) - (0.5 * t) * self._sa
                rhs = self.x + (0.5 * t) * (self._sa @ self.x)
                out, _ = checked_solve(b, rhs, RCOND_FLOOR)
                return out
            b = np.eye(self._cg.shape[0]) - (0.5 * t) * self._cg
            w, _ = checked_solve(b, self._cv, RCOND_FLOOR)
            return self.x + t * (self._u @ w)
        except np.linalg.LinAlgError as exc:
            raise WellDefinednessError(
                f"Cayley retraction undefined at t={t:.6g}: {exc}"
            ) from exc
