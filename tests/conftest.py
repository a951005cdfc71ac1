"""Shared instance builders for the test suite."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg

from indefstiefel import CayleyCurve, ManifoldSpec, WellDefinednessError, make_point, signature
from indefstiefel import retraction
from indefstiefel.linalg import checked_solve, random_rotation, skew, sym

from theory import random_tangent


def random_spd(rng: np.random.Generator, n: int, lo: float = 0.5, hi: float = 5.0) -> np.ndarray:
    """Well-conditioned random symmetric positive definite matrix."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a = (q * rng.uniform(lo, hi, n)) @ q.T
    return 0.5 * (a + a.T)


def random_indefinite(
    rng: np.random.Generator, n: int, n_pos: int, lo: float = 0.5, hi: float = 3.0
) -> np.ndarray:
    """Random symmetric matrix with inertia (n_pos, n - n_pos, 0)."""
    q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    eigs = np.concatenate(
        [rng.uniform(lo, hi, n_pos), -rng.uniform(lo, hi, n - n_pos)]
    )
    a = (q * eigs) @ q.T
    return 0.5 * (a + a.T)


def block_diag_orthogonal(p: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """diag(Q1, Q2) with random rotations of orders p and m: orthogonal, and
    J-orthogonal for J = diag(I_p, -I_m)."""
    return scipy.linalg.block_diag(random_rotation(p, rng), random_rotation(m, rng))


def random_spec(
    rng: np.random.Generator, n: int, p: int, kp: int, km: int, diagonal: bool = False
) -> ManifoldSpec:
    """Random admissible manifold with inertia(A) = (p, n-p), inertia(J) = (kp, km)."""
    m = n - p
    if diagonal:
        a = np.diag(
            np.concatenate([rng.uniform(0.5, 3.0, p), -rng.uniform(0.5, 3.0, m)])
        )
    else:
        a = random_indefinite(rng, n, p)
    return ManifoldSpec(a, signature(kp, km))


def perturbed_point(
    spec: ManifoldSpec, rng: np.random.Generator, scale: float = 0.3
) -> np.ndarray:
    """A feasible point away from the canonical starting point."""
    x = make_point(spec)
    z = random_tangent(spec, x, rng)
    norm = np.linalg.norm(z)
    if norm > 0:
        x = CayleyCurve(spec, x, (scale / norm) * z).at(1.0)
    return x


def pointwise_metric(fn) -> SimpleNamespace:
    """An X-dependent metric M_X = fn(X), factorized at each call, with the
    two methods the solver calls on a metric."""

    def apply_inverse(x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return scipy.linalg.cho_solve(scipy.linalg.cho_factor(sym(fn(x))), y, check_finite=False)

    return SimpleNamespace(apply=lambda x, y: fn(x) @ y, apply_inverse=apply_inverse)


class DenseCayleyCurve:
    """Test oracle: the Cayley curve t -> R_X(t Z) through the n x n resolvent,

        R_X(t Z) = (I - (t/2) S_{X,Z} A)^{-1} (I + (t/2) S_{X,Z} A) X,

    with S_{X,Z} A assembled from rank-k pieces.  It has the interface of
    CayleyCurve, so it can stand in for the library's curve in ``solve``.
    """

    def __init__(self, spec: ManifoldSpec, x: np.ndarray, z: np.ndarray, ax: np.ndarray | None = None):
        self.x = np.asarray(x, dtype=float)
        z = np.asarray(z, dtype=float)
        if ax is None:
            ax = spec.apply_a(self.x)
        az = spec.apply_a(z)
        core = skew(az.T @ self.x)
        xj = self.x @ spec.J
        jxta = spec.J @ ax.T
        self._sa = xj @ (core @ jxta) - xj @ az.T + z @ jxta

    def at(self, t: float) -> np.ndarray:
        t = float(t)
        b = np.eye(self.x.shape[0]) - (0.5 * t) * self._sa
        rhs = self.x + (0.5 * t) * (self._sa @ self.x)
        try:
            return checked_solve(b, rhs)[0]
        except np.linalg.LinAlgError as exc:
            raise WellDefinednessError(f"oracle Cayley system singular at t={t:.6g}") from exc


def woodbury_curve(spec: ManifoldSpec, x: np.ndarray, z, ax: np.ndarray | None = None) -> CayleyCurve:
    """The library's curve on its 2k x 2k Woodbury kernel, at any shape: the
    private width rule is patched while the curve is built."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(retraction, "_woodbury", lambda n, k: True)
        return CayleyCurve(spec, x, z, ax)


# the two Cayley kernels compared by the cross-kernel tests: the dense
# oracle and the library's Woodbury kernel
CURVES = {"dense": DenseCayleyCurve, "woodbury": woodbury_curve}
