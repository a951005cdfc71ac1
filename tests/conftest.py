"""Shared instance builders for the test suite."""

from __future__ import annotations

import numpy as np

from indefstiefel import ManifoldSpec, make_point, random_tangent, retract, signature


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
    z = random_tangent(spec, x, rng).value
    norm = np.linalg.norm(z)
    if norm > 0:
        x = retract(spec, x, (scale / norm) * z, 1.0, form="full")
    return x
