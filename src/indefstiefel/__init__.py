"""Riemannian optimization on the indefinite Stiefel manifold
iSt_{A,J}(k, n) = {X : X^T A X = J}, with A symmetric nonsingular (possibly
indefinite) and J a symmetric involution.

Library layout: ``linalg`` (dense symmetric kernels and test matrices),
``manifold`` (geometry under tractable metrics), ``retraction`` (Cayley
transform through a 2k x 2k or an n x n solve, picked by shape),
``optimizer`` (BB + nonmonotone gradient descent), ``problems`` (benchmark
objectives and a dense pencil oracle), ``cli`` (experiment runner).
"""

from .linalg import (
    Inertia,
    checked_solve,
    inertia,
    read_mtx,
    skew,
    random_rotation,
    signature,
    solve_lyapunov,
    sym,
    test_matrix,
    write_mtx,
)
from .manifold import (
    ManifoldSpec,
    MetricSpec,
    TangentVector,
    assemble_tangent,
    feasibility,
    make_point,
    metric_inner,
    metric_norm,
    project_tangent,
    random_tangent,
    riemannian_gradient,
    tangency_residual,
)
from .optimizer import (
    HISTORY_COLUMNS,
    LineSearchStalled,
    RunRecord,
    SolverConfig,
    SolverState,
    bb_trial_step,
    gradient_check,
    nonmonotone_search,
    solve,
)
from .problems import (
    PencilEigResult,
    Problem,
    consistent_solution,
    extract_eigenpairs,
    lrevp_initial_guess,
    lrevp_problem,
    matrix_equation_problem,
    pencil_oracle,
    procrustes_problem,
    trace_min_problem,
)
from .retraction import (
    CayleyCurve,
    WellDefinednessError,
    cayley_radius_bound,
    definedness_radius,
    retract,
    retraction_axioms_check,
    s_matrix,
    second_order_defect,
    spectrum_is_imaginary,
)

__version__ = "0.1.0"
