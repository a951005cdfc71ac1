"""Riemannian optimization on the indefinite Stiefel manifold
iSt_{A,J}(k, n) = {X : X^T A X = J}, with A symmetric nonsingular (possibly
indefinite) and J a symmetric involution.

Library layout: ``linalg`` (symmetric kernels, the banded-or-dense
operator that holds M and A, and test matrices), ``manifold`` (geometry
under tractable metrics), ``retraction`` (Cayley transform through a
2k x 2k or an n x n solve, picked by shape), ``optimizer`` (BB +
nonmonotone gradient descent), ``problems`` (benchmark objectives and a
dense pencil oracle), ``cli`` (experiment runner).
The package root names what a user calls; the kernels under it stay
importable from their submodules.
"""

from .linalg import read_mtx, signature, test_matrix
from .manifold import ManifoldSpec, MetricSpec, feasibility, make_point
from .optimizer import RunRecord, SolverConfig, solve
from .problems import (
    Problem,
    extract_eigenpairs,
    lrevp_initial_guess,
    lrevp_problem,
    matrix_equation_problem,
    pencil_oracle,
    procrustes_problem,
    trace_min_problem,
)
from .retraction import CayleyCurve, WellDefinednessError

__all__ = [
    "Problem", "trace_min_problem", "lrevp_problem", "lrevp_initial_guess",
    "procrustes_problem", "matrix_equation_problem",
    "pencil_oracle", "extract_eigenpairs", "solve", "SolverConfig", "RunRecord",
    "ManifoldSpec", "MetricSpec", "make_point", "feasibility",
    "CayleyCurve", "WellDefinednessError", "test_matrix", "signature", "read_mtx",
]

__version__ = "0.1.0"
