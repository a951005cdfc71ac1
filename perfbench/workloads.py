"""Benchmark workloads: seeded inputs, the timed set-up, and the solve config.

A workload turns a seed into a list of instances.  An instance holds the raw
input matrices the benchmark generated (the library sees nothing else), the
k x k right factors that turn the library's canonical start into the run's
starts, and the correctness reference it is checked against.  Generating the
inputs and computing the reference are never timed; ``Instance.factory`` plus
``Instance.start`` is the set-up the benchmark times.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

import numpy as np

from indefstiefel import (
    SolverConfig,
    make_point,
    pencil_oracle,
    procrustes_problem,
    test_matrix,
    trace_min_problem,
)


def signature(kp: int, km: int) -> np.ndarray:
    return np.diag(np.concatenate([np.ones(kp), -np.ones(km)]))


def rotation(size: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random orthogonal matrix with determinant +1."""
    q, r = np.linalg.qr(rng.standard_normal((size, size)))
    q = q * np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] = -q[:, 0]
    return q


def block_rotation(kp: int, km: int, rng: np.random.Generator) -> np.ndarray:
    """diag(Q+, Q-) with rotations Q+-: orthogonal and J-orthogonal for
    J = diag(I_kp, -I_km), so X Q stays feasible with the same trace."""
    q = np.zeros((kp + km, kp + km))
    q[:kp, :kp] = rotation(kp, rng)
    q[kp:, kp:] = rotation(km, rng)
    return q


@dataclass(frozen=True)
class Instance:
    """One problem instance: min tr(X^T M X) on iSt_{A,J} ("tracemin") or
    min ||G X - B||^2 on the J-orthogonal group ("procrustes")."""

    kind: str
    mats: tuple                 # (M, A, J) or (G, B, J)
    rotations: tuple = ()       # extra starts: canonical start @ Q for each Q

    def factory(self):
        """The library's problem factory on this instance's inputs."""
        if self.kind == "tracemin":
            m, a, j = self.mats
            return trace_min_problem(m, a, j, metric="hessian")
        g, b, j = self.mats
        return procrustes_problem(g, b, j)

    def start(self, problem) -> np.ndarray:
        """The canonical start: make_point, or the identity for procrustes."""
        if self.kind == "tracemin":
            return make_point(problem.spec)
        return np.eye(problem.spec.n)

    def starts(self, x0: np.ndarray) -> list[np.ndarray]:
        return [x0] + [x0 @ q for q in self.rotations]

    def constraint(self) -> tuple[np.ndarray, np.ndarray]:
        """(A, J) of the constraint X^T A X = J."""
        if self.kind == "tracemin":
            return self.mats[1], self.mats[2]
        return self.mats[2], self.mats[2]

    def objective(self, x: np.ndarray) -> float:
        """The objective recomputed from the generated inputs."""
        if self.kind == "tracemin":
            return float(np.vdot(x, self.mats[0] @ x))
        r = self.mats[0] @ x - self.mats[1]
        return float(np.vdot(r, r))

    def reference(self) -> float:
        """Optimal value: the dense pencil oracle for tracemin; zero for the
        consistent procrustes instances (B = G V with V feasible)."""
        if self.kind == "tracemin":
            m, a, j = self.mats
            kp = int(np.count_nonzero(np.diag(j) > 0))
            return pencil_oracle(m, a, kp, j.shape[0] - kp)[2]
        return 0.0


@dataclass(frozen=True)
class Workload:
    """Why each workload was chosen is recorded in BENCHMARK.json and the
    README next to this file."""

    name: str
    instances: Callable[[int], list[Instance]]
    config: SolverConfig


def pinned_full_form(**kwargs) -> SolverConfig:
    # The acceptance suite solves this pencil with form="full": the default
    # compact (econ) form amplifies feasibility drift and fails the
    # correctness check on every start (ROADMAP item 1).  The
    # "lehmer200-default" audit workload keeps measuring that defect.  Once a
    # release drops the forms, its default kernel is what gets timed.
    if "form" in {f.name for f in dataclasses.fields(SolverConfig)}:
        kwargs["form"] = "full"
    return SolverConfig(**kwargs)


LEHMER_STARTS = 32
TRIDIAG_STARTS = 5
PROCRUSTES_INSTANCES = 48


def lehmer_instances(seed: int) -> list[Instance]:
    n, p, m = 200, 150, 50
    a = np.diag(np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(m), 0.0, -1.0)]))
    rng = np.random.default_rng(seed)
    rots = tuple(block_rotation(3, 2, rng) for _ in range(LEHMER_STARTS - 1))
    return [Instance("tracemin", (test_matrix("lehmer", n), a, signature(3, 2)), rots)]


def tridiag_instances(seed: int) -> list[Instance]:
    n = 2000
    a = np.diag(np.concatenate([np.arange(1.0, 1001.0), -np.arange(1.0, 1001.0)]))
    rng = np.random.default_rng(seed)
    rots = tuple(block_rotation(5, 5, rng) for _ in range(TRIDIAG_STARTS - 1))
    return [Instance("tracemin", (test_matrix("tridiag", n), a, signature(5, 5)), rots)]


def procrustes_instances(seed: int) -> list[Instance]:
    n, p = 200, 150
    j = signature(p, n - p)
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(PROCRUSTES_INSTANCES):
        g = rng.standard_normal((n, n))
        out.append(Instance("procrustes", (g, g @ block_rotation(p, n - p, rng), j)))
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload("lehmer200", lehmer_instances, pinned_full_form(rstop=1e-9)),
        Workload("tridiag2000", tridiag_instances, SolverConfig(rstop=1e-9)),
        Workload("procrustes200", procrustes_instances, SolverConfig(rstop=1e-6)),
        # Audit only, not in BENCHMARK.json: lehmer200's starts on the
        # library's default retraction, which fails the correctness check.
        Workload("lehmer200-default", lehmer_instances, SolverConfig(rstop=1e-9)),
    )
}
