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
one 2k x 2k solve per step size.  It never forms U: C U^T A U and C U^T A X
are assembled from the k x k Grams X^T A X, Z^T A X and Z^T A Z, and the
point is [X, Z] times a 2k x k coefficient.  Both kernels compute the same
map at any base point, feasible or not.

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

    Construction applies A to Z (and to X, unless ``ax`` = A X is given) and
    then, on the Woodbury kernel, forms only k x k Gram blocks: O(n k^2)
    beyond the two products with A.  ``at(t)`` then costs one linear solve:
    2k x 2k through the Woodbury identity when k is small against n, else
    the n x n resolvent.
    """

    def __init__(self, spec: ManifoldSpec, x: np.ndarray, z: np.ndarray, ax: np.ndarray | None = None):
        self.x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if ax is None:
            ax = spec.apply_a(self.x)
        az = spec.apply_a(z)
        # the k x k core Z^T A X is skew for tangent Z; re-skewing it keeps S
        # skew to roundoff when Z carries a small tangency defect, and exact
        # skewness is what makes the transform preserve X^T A X
        zax = az.T @ self.x
        core = skew(zax)
        self._sa = None
        if _woodbury(spec.n, spec.k):
            # C U^T A U and C U^T A X blockwise from the Grams X^T A X, Z^T A X
            # and Z^T A Z, with U = [X J, Z] never formed.  X^T A X is
            # computed, not taken to be J: the kernel must stay the exact
            # congruence at a base point off the manifold.
            k, j = spec.k, spec.J
            jg = j @ (self.x.T @ ax)
            jgj = jg @ j
            jh = j @ zax.T
            self._cg = np.empty((2 * k, 2 * k))
            self._cg[:k, :k] = core @ jgj - zax @ j
            self._cg[:k, k:] = core @ jh - z.T @ az
            self._cg[k:, :k] = jgj
            self._cg[k:, k:] = jh
            self._cv = np.empty((2 * k, k))
            self._cv[:k] = core @ jg - zax
            self._cv[k:] = jg
            self._j = j
            self._xz = np.hstack([self.x, z])
        else:
            # assemble S_{X,Z} A from rank-k pieces (never an n^3 product)
            # J applied through its operator: a row scaling for a diagonal J
            xj = (spec._j @ self.x.T).T
            jxta = spec._j @ ax.T
            self._sa = xj @ (core @ jxta) - xj @ az.T + z @ jxta
            self._sax = self._sa @ self.x  # S A X does not depend on t

    def at(self, t: float) -> np.ndarray:
        """Evaluate the curve; raises WellDefinednessError at singular t."""
        t = float(t)
        try:
            if self._sa is not None:
                b = np.eye(self.x.shape[0]) - (0.5 * t) * self._sa
                rhs = self.x + (0.5 * t) * self._sax
                out, _ = checked_solve(b, rhs)
                return out
            b = np.eye(self._cg.shape[0]) - (0.5 * t) * self._cg
            w, _ = checked_solve(b, self._cv)
            # X + t U w = [X, Z] [[I + t J w_1], [t w_2]]; a C-ordered
            # coefficient takes the faster BLAS kernel for the n x 2k product
            k = w.shape[1]
            coef = np.multiply(t, w, order="C")
            coef[:k] = np.eye(k) + self._j @ coef[:k]
            return self._xz @ coef
        except np.linalg.LinAlgError as exc:
            raise WellDefinednessError(
                f"Cayley retraction undefined at t={t:.6g}: {exc}"
            ) from exc
