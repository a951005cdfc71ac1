"""Config-driven experiment runner for indefinite-Stiefel optimization.

Subcommands:
  run     -- build one benchmark problem, solve it, write artifacts.
  batch   -- repeat ``run`` over consecutive seeds and aggregate.
  verify  -- smoke test: solve a small trace-minimization instance and
             check it against the dense pencil oracle, one pass/FAIL line
             per check (exit code 1 on any failure).

Artifacts of ``run`` (per out_dir): ``summary.json`` (terminal objective,
gradient norm, feasibility, iteration/evaluation counts, solve wall time,
plus eigenvalue residual, or recovery distance and exact objective, when
applicable),
``history.csv`` (columns ``iter,f,gradnorm,tau,feas,time_s``),
``config.txt`` (resolved key = value echo of the fields the problem reads),
``x_final.npy``.

Exit codes: 0 converged, 1 configuration or usage error, 2 iteration budget
exhausted, 3 line search stalled, 4 end point infeasible.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.linalg

from .linalg import random_rotation, read_mtx, signature, test_matrix
from .manifold import ManifoldSpec, _points, feasibility, make_point
from .optimizer import SolverConfig, solve
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

PROBLEM_KINDS = ("tracemin", "lrevp", "procrustes", "matexeq")
METRIC_KINDS = ("euclidean", "hessian")
MATRIX_KINDS = ("lehmer", "minij", "kms", "gcdmat", "moler", "tridiag")
# the config fields each problem ignores, left out of its config echo
IGNORED_FIELDS = {
    "tracemin": ("l", "mtx_k", "mtx_m"),
    "lrevp": ("n", "kp", "l", "matrix", "matrix_param"),
    "procrustes": ("k", "kp", "matrix", "matrix_param", "mtx_k", "mtx_m"),
    "matexeq": ("kp", "l", "mtx_k", "mtx_m"),
}


class ConfigError(ValueError):
    """Invalid experiment configuration or command line; maps to exit code 1."""


@dataclass
class ExperimentConfig:
    """One experiment: problem kind, sizes, generators, solver knobs, outputs.

    Field names double as config-file keys and (hyphenated) CLI flags; each
    value is parsed by the type its annotation names.  A has p positive and
    m = n - p negative eigenvalues, and tracemin's J = diag(I_kp, -I_km) has
    km = k - kp.
    """

    problem: str = "tracemin"
    n: int = 200
    p: int = 150
    k: int = 5
    kp: int = 3
    l: int | None = None
    matrix: str = "lehmer"
    matrix_param: float | None = None
    metric: str = "hessian"
    rstop: float = 1e-9
    max_iter: int = 20000
    seed: int = 0
    out_dir: str = "results"
    mtx_k: str | None = None
    mtx_m: str | None = None

    def validate(self) -> None:
        """Check parameter consistency before any matrix is allocated."""
        if self.problem not in PROBLEM_KINDS:
            raise ConfigError(
                f"unknown problem {self.problem!r}; choose from {', '.join(PROBLEM_KINDS)}"
            )
        if self.metric not in METRIC_KINDS:
            raise ConfigError(
                f"unknown metric {self.metric!r}; choose from {', '.join(METRIC_KINDS)}"
            )
        if self.matrix not in MATRIX_KINDS:
            raise ConfigError(
                f"unknown matrix {self.matrix!r}; choose from {', '.join(MATRIX_KINDS)}"
            )
        for name in ("n", "p", "k", "kp"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} = {value} must be nonnegative")
        if self.rstop < 0:
            raise ConfigError(f"rstop = {self.rstop} must be nonnegative")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter = {self.max_iter} must be at least 1")
        if self.problem != "lrevp" and self.p > self.n:
            raise ConfigError(
                f"p = {self.p} exceeds n = {self.n}; {self.problem} needs p <= n"
            )
        # procrustes has k = n; the library checks the rest
        if self.problem != "procrustes" and self.k < 1:
            raise ConfigError(f"k = {self.k} must be at least 1")
        if self.problem == "tracemin" and self.kp > self.k:
            raise ConfigError(f"kp = {self.kp} exceeds k = {self.k}; tracemin needs kp <= k")
        if self.problem == "procrustes" and self.l is not None and self.l < 1:
            raise ConfigError(f"l = {self.l} must be at least 1")

    def lines(self) -> list[str]:
        """Resolved ``key = value`` echo, one line per field the problem reads."""
        out = []
        for field_ in dataclasses.fields(self):
            if field_.name in IGNORED_FIELDS[self.problem]:
                continue
            value = getattr(self, field_.name)
            out.append(f"{field_.name} = {'none' if value is None else value}")
        return out


# field annotations, e.g. "int" or "float | None"
_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
_PARSERS = {"int": int, "float": float, "str": str}


def _coerce(key: str, raw: str):
    """Parse one config-file or flag value by the annotation of field ``key``;
    "none" or an empty value is None where the annotation allows it."""
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    text = raw.strip()
    base, _, optional = _FIELD_TYPES[key].partition(" | ")
    if optional and text.lower() in ("none", ""):
        return None
    try:
        return _PARSERS[base](text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {text!r}") from exc


def parse_config_file(path) -> dict:
    """Parse a line-oriented ``key = value`` config file into a field dict."""
    values: dict = {}
    for lineno, line in enumerate(Path(path).read_text().splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, _, raw = stripped.partition("=")
        values[key.strip()] = _coerce(key.strip(), raw)
    return values


def load_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge config-file values with CLI flag overrides (flags win)."""
    values: dict = {}
    if getattr(args, "config", None):
        values.update(parse_config_file(args.config))
    for name in _FIELD_TYPES:
        raw = getattr(args, name, None)
        if raw is not None:
            values[name] = _coerce(name, raw)
    config = ExperimentConfig(**values)
    config.validate()
    return config


def build_problem(config: ExperimentConfig) -> tuple[Problem, np.ndarray, np.ndarray | None]:
    """Instantiate (problem, x0, prescribed) for the configured benchmark.

    prescribed is the X* of the recovery problems (procrustes, matexeq),
    whose B = G X* makes it a zero of the objective; None for the eigenvalue
    problems, which carry their pencil.  Inputs the library rejects (an
    empty manifold, a non-SPD K or M, a singular A) are configuration errors.
    """
    try:
        return _build_problem(config)
    except ValueError as exc:  # a ConfigError too, re-raised with its message
        raise ConfigError(str(exc)) from exc


def _build_problem(config: ExperimentConfig) -> tuple[Problem, np.ndarray, np.ndarray | None]:
    rng = np.random.default_rng(config.seed)
    n, p, m, k = config.n, config.p, config.n - config.p, config.k

    if config.problem == "tracemin":
        m_mat = test_matrix(config.matrix, n, config.matrix_param)
        a_diag = np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(m), 0.0, -1.0)])
        problem = trace_min_problem(
            m_mat, np.diag(a_diag), signature(config.kp, k - config.kp),
            metric=config.metric,
        )
        return problem, make_point(problem.spec), None

    if config.problem == "lrevp":
        if (config.mtx_k is None) != (config.mtx_m is None):
            raise ConfigError("lrevp needs both mtx_k and mtx_m, or neither")
        if config.mtx_k is not None:
            k_mat, m_mat = read_mtx(config.mtx_k), read_mtx(config.mtx_m)
            p = k_mat.shape[0]
        else:
            k_mat = _random_spd(p, rng)
            m_mat = _random_spd(p, rng)
        problem = lrevp_problem(k_mat, m_mat, k, metric=config.metric)
        return problem, lrevp_initial_guess(p, k, rng), None

    if config.problem == "procrustes":
        l = config.l if config.l is not None else n
        g = rng.standard_normal((l, n))
        v = scipy.linalg.block_diag(random_rotation(p, rng), random_rotation(m, rng))
        b = g @ v
        problem = procrustes_problem(g, b, signature(p, m), metric=config.metric)
        return problem, np.eye(n), v

    # matexeq
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a_eigs = np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(m), 0.0, -1.0)])
    a = (basis * a_eigs) @ basis.T
    g = test_matrix(config.matrix, n, config.matrix_param)
    spec = ManifoldSpec(a, np.eye(k))
    # both points from one n x n eigendecomposition of A
    x_star, x0 = _points(spec, (np.arange(k), None), (np.arange(p - k, p), None))
    problem = matrix_equation_problem(g, g @ x_star, spec, metric=config.metric)
    return problem, x0, x_star


def _random_spd(p: int, rng: np.random.Generator) -> np.ndarray:
    q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return (q * rng.uniform(0.5, 10.0, p)) @ q.T


def run_experiment(config: ExperimentConfig) -> dict:
    """Build and solve the configured problem, write its artifacts to
    ``config.out_dir``, and return the summary."""
    problem, x0, prescribed = build_problem(config)
    record = solve(problem, x0, SolverConfig(rstop=config.rstop, max_iter=config.max_iter))
    summary = record.summary()
    summary["problem"] = config.problem
    summary["seed"] = config.seed
    if problem.pencil_m is not None:
        summary["eig_rel_err"] = extract_eigenpairs(problem, record.x).rel_err
    if prescribed is not None:
        summary["diff"] = float(np.linalg.norm(record.x - prescribed))
        summary["exact_obj"] = 0.0
    out_dir = Path(config.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    record.to_csv(out_dir / "history.csv")
    (out_dir / "config.txt").write_text("\n".join(config.lines()) + "\n")
    np.save(out_dir / "x_final.npy", record.x)
    return summary


_EXIT_BY_STATUS = {"converged": 0, "max_iter": 2, "stalled": 3, "infeasible": 4}


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args)
    for line in config.lines():
        print(line)
    summary = run_experiment(config)
    print(
        f"{summary['status']}: obj={summary['obj']:.9e} gradnorm={summary['gradnorm']:.3e} "
        f"feas={summary['feas']:.3e} iter={summary['iter']} feval={summary['feval']} "
        f"cpu_s={summary['cpu_s']:.3f}"
    )
    print(f"artifacts written to {Path(config.out_dir)}")
    return _EXIT_BY_STATUS[summary["status"]]


def cmd_batch(args: argparse.Namespace) -> int:
    config = load_config(args)
    n_seeds = args.n_seeds
    if n_seeds < 1:
        raise ConfigError(f"n_seeds = {n_seeds} must be at least 1")
    out_root = Path(config.out_dir)
    runs = []
    worst_exit = 0
    for seed in range(config.seed, config.seed + n_seeds):
        run_config = dataclasses.replace(
            config, seed=seed, out_dir=str(out_root / f"seed_{seed}")
        )
        summary = run_experiment(run_config)
        runs.append(summary)
        worst_exit = max(worst_exit, _EXIT_BY_STATUS[summary["status"]])
        print(
            f"seed {seed}: {summary['status']} obj={summary['obj']:.6e} "
            f"feas={summary['feas']:.3e} iter={summary['iter']} cpu_s={summary['cpu_s']:.3f}"
        )
    numeric = [
        key
        for key in runs[0]
        if isinstance(runs[0][key], (int, float)) and not isinstance(runs[0][key], bool)
    ]
    mean_row = {key: float(np.mean([run[key] for run in runs])) for key in numeric}
    mean_row["n_converged"] = sum(run["status"] == "converged" for run in runs)
    out_root.mkdir(parents=True, exist_ok=True)
    with open(out_root / "batch_summary.json", "w") as fh:
        json.dump({"runs": runs, "mean": mean_row}, fh, indent=2)
        fh.write("\n")
    print(
        f"mean over {n_seeds} seeds: obj={mean_row['obj']:.6e} feas={mean_row['feas']:.3e} "
        f"iter={mean_row['iter']:.1f} cpu_s={mean_row['cpu_s']:.3f} "
        f"converged={mean_row['n_converged']}/{n_seeds}"
    )
    return worst_exit


# the small trace-minimization instance that ``verify`` solves end to end
VERIFY_CONFIG = ExperimentConfig(n=30, p=20, k=3, kp=2)


def _verify_checks():
    """Yield (name, passed, detail) for each check of the smoke test."""
    problem, x0, _ = build_problem(VERIFY_CONFIG)
    feas0 = feasibility(problem.spec, x0)
    yield ("starting point feasible", feas0 <= 1e-10, f"feas={feas0:.2e}")

    record = solve(problem, x0)
    kp, km, _ = problem.spec.inertia_j
    _, _, f_star = pencil_oracle(problem.pencil_m.dense, problem.spec.A, kp, km)
    rel = abs(problem.f(record.x) - f_star) / abs(f_star)
    yield (
        "solver matches the dense pencil oracle",
        record.status == "converged" and rel <= 1e-6,
        f"{record.status}, rel={rel:.2e}",
    )
    feas = feasibility(problem.spec, record.x)
    yield ("end point feasible", feas <= 1e-8, f"feas={feas:.2e}")


def cmd_verify(args: argparse.Namespace) -> int:
    failures = 0
    for name, passed, detail in _verify_checks():
        tag = "pass" if passed else "FAIL"
        print(f"{tag}  {name}  [{detail}]")
        failures += 0 if passed else 1
    print(f"{failures} failure(s)" if failures else "all checks passed")
    return 1 if failures else 0


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ConfigError (exit code 1), not argparse's
    exit code 2, which means an exhausted iteration budget here."""

    def error(self, message: str):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="indefstiefel",
        description="Benchmark runner for gradient descent on indefinite Stiefel manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", help="key = value config file; flags override it")
        for field_ in dataclasses.fields(ExperimentConfig):
            sp.add_argument(
                "--" + field_.name.replace("_", "-"), dest=field_.name,
                help=f"{field_.type}, default {field_.default}",
            )

    run_p = sub.add_parser("run", help="solve one configured benchmark problem")
    add_common(run_p)
    run_p.set_defaults(func=cmd_run)

    batch_p = sub.add_parser("batch", help="repeat run over consecutive seeds")
    add_common(batch_p)
    batch_p.add_argument("--n-seeds", dest="n_seeds", type=int, default=10)
    batch_p.set_defaults(func=cmd_batch)

    verify_p = sub.add_parser("verify", help="end-to-end smoke test on a small instance")
    verify_p.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (ConfigError, FileNotFoundError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
