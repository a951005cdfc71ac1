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
backtracks.  Iteration stops when the metric gradient norm falls below
rstop times its initial value.  An end point whose feasibility
||X^T A X - J||_F exceeds the start tolerance 1e-8 ||J||_F is reported as
"infeasible", whatever stopped the loop.
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
class SolverState:
    """Mutable loop state of :func:`solve`, read and advanced by
    :func:`nonmonotone_search`."""

    j: int
    x: np.ndarray
    z: np.ndarray          # search direction, -grad f(x)
    gradnorm: float        # metric norm of grad f(x)
    q: float
    c: float
    gamma: float
    feval: int = 0
    prev_x: np.ndarray | None = None
    prev_z: np.ndarray | None = None


class LineSearchStalled(RuntimeError):
    """Backtracking exhausted max_backtracks without an acceptable step."""


@dataclass
class RunRecord:
    """Per-iteration history plus the terminal summary of one solve."""

    status: str                       # "converged" | "max_iter" | "stalled" | "infeasible"
    x: np.ndarray                     # final iterate
    rows: list[tuple] = field(default_factory=list)  # HISTORY_COLUMNS tuples
    n_iter: int = 0
    n_feval: int = 0
    cpu_s: float = 0.0

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
        with open(path, "w") as fh:
            fh.write(",".join(HISTORY_COLUMNS) + "\n")
            for row in self.rows:
                fh.write(
                    f"{int(row[0])},{row[1]:.17g},{row[2]:.17g},"
                    f"{row[3]:.17g},{row[4]:.17g},{row[5]:.6f}\n"
                )


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


def nonmonotone_search(problem, state: SolverState, config: SolverConfig):
    """Backtrack from state.gamma until the nonmonotone condition holds.

    Returns (tau, x_next, f_next, l).  Retraction breakdown at a trial step
    counts as a failed condition (no f evaluation).  Raises LineSearchStalled
    after max_backtracks rejections.
    """
    curve = CayleyCurve(problem.spec, state.x, state.z)
    dir_deriv = -state.gradnorm**2  # g_X(grad f, Z) with Z = -grad f
    for ell in range(config.max_backtracks + 1):
        tau = state.gamma * config.delta**ell
        try:
            x_trial = curve.at(tau)
        except WellDefinednessError:
            continue
        f_trial = problem.f(x_trial)
        state.feval += 1
        if f_trial <= state.c + config.beta * tau * dir_deriv:
            return tau, x_trial, f_trial, ell
    raise LineSearchStalled(
        f"no acceptable step within {config.max_backtracks} backtracks "
        f"(iteration {state.j}, gamma={state.gamma:.3e})"
    )


def solve(problem, x0: np.ndarray, config: SolverConfig | None = None) -> RunRecord:
    """Minimize problem.f over iSt_{A,J} starting from the feasible x0."""
    if config is None:
        config = SolverConfig()
    spec, metric = problem.spec, problem.metric
    x0 = np.asarray(x0, dtype=float)

    feas_tol = 1e-8 * np.linalg.norm(spec.J)
    feas0 = feasibility(spec, x0)
    if feas0 > feas_tol:
        raise ValueError(
            f"infeasible starting point: ||X0^T A X0 - J||_F = {feas0:.3e}"
        )

    t_start = time.perf_counter()
    f0 = problem.f(x0)
    if not np.isfinite(f0):
        raise ValueError(f"objective is not finite at the starting point ({f0})")
    grad = riemannian_gradient(spec, metric, x0, problem.metric_grad(x0))
    gn0 = metric_norm(metric, x0, grad)

    state = SolverState(
        j=0, x=x0, z=-grad, gradnorm=gn0,
        q=1.0, c=f0, gamma=config.gamma0, feval=1,
    )
    rows = [(0, f0, gn0, 0.0, feas0, time.perf_counter() - t_start)]
    status = "max_iter"

    while True:
        if state.gradnorm <= config.rstop * gn0:
            status = "converged"
            break
        if state.j >= config.max_iter:
            status = "max_iter"
            break

        if state.j > 0:
            state.gamma = bb_trial_step(
                state.x - state.prev_x, state.z - state.prev_z, state.j, config
            )

        try:
            tau, x_next, f_next, _ = nonmonotone_search(problem, state, config)
        except LineSearchStalled:
            status = "stalled"
            break
        if not np.isfinite(f_next):
            raise ValueError(f"objective is not finite at iteration {state.j + 1}")

        q_next = config.alpha * state.q + 1.0
        state.c = (config.alpha * state.q * state.c + f_next) / q_next
        state.q = q_next
        state.prev_x, state.prev_z = state.x, state.z
        state.x = x_next
        state.j += 1

        grad = riemannian_gradient(spec, metric, x_next, problem.metric_grad(x_next))
        state.gradnorm = metric_norm(metric, x_next, grad)
        state.z = -grad
        rows.append(
            (state.j, f_next, state.gradnorm, tau, feasibility(spec, x_next),
             time.perf_counter() - t_start)
        )

    if rows[-1][4] > feas_tol:
        status = "infeasible"
    return RunRecord(
        status=status,
        x=state.x,
        rows=rows,
        n_iter=state.j,
        n_feval=state.feval,
        cpu_s=time.perf_counter() - t_start,
    )
