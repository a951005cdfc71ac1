"""Riemannian gradient descent with BB trial steps and nonmonotone search.

One iteration moves along Z_j = -grad f(X_j) through the Cayley retraction.
The trial step gamma_j alternates between the two Barzilai-Borwein formulas
built from W = X_j - X_{j-1} and Y = Z_j - Z_{j-1}, clamped to
[gamma_min, gamma_max]; backtracking then finds the smallest l >= 0 with

    f(R_{X_j}(tau Z_j)) <= c_j + beta tau g_X(grad f(X_j), Z_j),
    tau = gamma_j delta^l,

where c_j is the Zhang-Hager nonmonotone reference value updated by
q_{j+1} = alpha q_j + 1, c_{j+1} = (alpha q_j c_j + f(X_{j+1})) / q_{j+1}.
A step at which the retraction is undefined simply fails the condition and
backtracks.  :func:`solve` keeps the loop's state (X_j, A X_j, Z_j, q_j, c_j,
gamma_j, the f-evaluation count) in locals.  Iteration stops when the metric
gradient norm falls below rstop times its initial value.  An end point whose
feasibility ||X^T A X - J||_F exceeds the start tolerance 1e-8 ||J||_F is
reported as "infeasible", whatever stopped the loop.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .manifold import feasibility, metric_norm, riemannian_gradient
from .retraction import CayleyCurve, WellDefinednessError


HISTORY_COLUMNS = ("iter", "f", "gradnorm", "tau", "feas", "time_s")


@dataclass(frozen=True)
class SolverConfig:
    """Tuning knobs; the defaults are the standard benchmark settings."""

    beta: float = 1e-4          # sufficient-decrease slope factor
    delta: float = 0.5          # backtracking shrink
    gamma0: float = 1e-3        # first trial step
    gamma_min: float = 1e-15    # BB clamp, lower
    gamma_max: float = 1e5      # BB clamp, upper
    alpha: float = 0.85         # nonmonotone averaging weight (0 = Armijo)
    rstop: float = 1e-9         # relative gradient-norm stopping factor
    max_iter: int = 20000
    max_backtracks: int = 60


@dataclass
class RunRecord:
    """Per-iteration history plus the terminal summary of one solve."""

    status: str                       # "converged" | "max_iter" | "stalled" | "infeasible"
    x: np.ndarray                     # final iterate
    rows: list[tuple] = field(default_factory=list)  # HISTORY_COLUMNS tuples
    n_feval: int = 0
    cpu_s: float = 0.0

    @property
    def n_iter(self) -> int:
        return len(self.rows) - 1

    @property
    def obj(self) -> float:
        return self.rows[-1][1]

    @property
    def gradnorm(self) -> float:
        return self.rows[-1][2]

    @property
    def feas(self) -> float:
        return self.rows[-1][4]

    def history(self) -> np.ndarray:
        return np.array(self.rows, dtype=float)

    def summary(self) -> dict:
        return {
            "status": self.status,
            "obj": self.obj,
            "gradnorm": self.gradnorm,
            "feas": self.feas,
            "iter": self.n_iter,
            "feval": self.n_feval,
            "cpu_s": self.cpu_s,
        }

    def to_csv(self, path) -> None:
        np.savetxt(path, self.history(), fmt=("%d", "%.17g", "%.17g", "%.17g", "%.17g", "%.6f"),
                   delimiter=",", header=",".join(HISTORY_COLUMNS), comments="")


def bb_trial_step(w: np.ndarray, y: np.ndarray, j: int, config: SolverConfig) -> float:
    """Alternating Barzilai-Borwein step from W = X_j - X_{j-1}, Y = Z_j - Z_{j-1}.

    Odd j uses <W, W> / |tr(W^T Y)|, even j uses |tr(W^T Y)| / <Y, Y>; the
    result is clamped to [gamma_min, gamma_max].  Degenerate denominators
    fall back to the clamped gamma0.
    """
    wy = abs(float(np.vdot(w, y)))
    if j % 2 == 1:
        num, den = float(np.vdot(w, w)), wy
    else:
        num, den = wy, float(np.vdot(y, y))
    if den == 0.0 or not np.isfinite(num / den):
        gamma = config.gamma0
    else:
        gamma = num / den
    return float(min(max(gamma, config.gamma_min), config.gamma_max))


def nonmonotone_search(problem, curve: CayleyCurve, gamma: float, c: float, gradnorm: float,
                       config: SolverConfig):
    """Backtrack along ``curve`` from gamma until the nonmonotone condition
    against the reference value c holds, where gradnorm is the metric norm
    of the gradient that the curve's direction negates.

    Returns (tau, x_next, f_next, evals), evals counting the f evaluations.
    Retraction breakdown at a trial step counts as a failed condition (no f
    evaluation).  After max_backtracks rejections it returns
    (None, None, None, evals): the search stalled.
    """
    dir_deriv = -gradnorm**2  # g_X(grad f, Z) with Z = -grad f
    evals = 0
    for ell in range(config.max_backtracks + 1):
        tau = gamma * config.delta**ell
        try:
            x_trial = curve.at(tau)
        except WellDefinednessError:
            continue
        f_trial = problem.f(x_trial)
        evals += 1
        if f_trial <= c + config.beta * tau * dir_deriv:
            return tau, x_trial, f_trial, evals
    return None, None, None, evals


def solve(problem, x0: np.ndarray, config: SolverConfig | None = None) -> RunRecord:
    """Minimize problem.f over iSt_{A,J} starting from the feasible x0."""
    if config is None:
        config = SolverConfig()
    spec, metric = problem.spec, problem.metric
    x = np.asarray(x0, dtype=float)

    feas_tol = 1e-8 * np.linalg.norm(spec.J)
    ax = spec.apply_a(x)  # A x, computed once per accepted point
    feas0 = feasibility(spec, x, ax)
    if feas0 > feas_tol:
        raise ValueError(
            f"infeasible starting point: ||X0^T A X0 - J||_F = {feas0:.3e}"
        )

    t_start = time.perf_counter()
    f0 = problem.f(x)
    if not np.isfinite(f0):
        raise ValueError(f"objective is not finite at the starting point ({f0})")
    grad = riemannian_gradient(spec, metric, x, problem.metric_grad(x), ax)
    gn0 = gradnorm = metric_norm(metric, x, grad)
    z = -grad  # search direction
    q, c, gamma, feval = 1.0, f0, config.gamma0, 1
    prev_x = prev_z = None
    rows = [(0, f0, gn0, 0.0, feas0, time.perf_counter() - t_start)]

    while True:
        j = len(rows) - 1
        if gradnorm <= config.rstop * gn0:
            status = "converged"
            break
        if j >= config.max_iter:
            status = "max_iter"
            break

        if j > 0:
            gamma = bb_trial_step(x - prev_x, z - prev_z, j, config)
        curve = CayleyCurve(spec, x, z, ax)
        tau, x_next, f_next, evals = nonmonotone_search(problem, curve, gamma, c, gradnorm, config)
        feval += evals
        if tau is None:
            status = "stalled"
            break
        if not np.isfinite(f_next):
            raise ValueError(f"objective is not finite at iteration {j + 1}")

        q_next = config.alpha * q + 1.0
        c = (config.alpha * q * c + f_next) / q_next
        q = q_next
        prev_x, prev_z = x, z
        x = x_next
        ax = spec.apply_a(x)

        grad = riemannian_gradient(spec, metric, x, problem.metric_grad(x), ax)
        gradnorm = metric_norm(metric, x, grad)
        z = -grad
        rows.append(
            (j + 1, f_next, gradnorm, tau, feasibility(spec, x, ax), time.perf_counter() - t_start)
        )

    if rows[-1][4] > feas_tol:
        status = "infeasible"
    return RunRecord(status=status, x=x, rows=rows, n_feval=feval,
                     cpu_s=time.perf_counter() - t_start)
