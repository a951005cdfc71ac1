"""Config-driven experiment runner for indefinite-Stiefel optimization.

Subcommands:
  run     -- build one benchmark problem, solve it, write artifacts.
  batch   -- repeat ``run`` over consecutive seeds and aggregate.
  verify  -- smoke test: solve a small trace-minimization instance and
             check it against the dense pencil oracle, one pass/FAIL line
             per check (exit code 1 on any failure).

Artifacts of ``run`` (per out_dir): ``summary.json`` (terminal objective,
gradient norm, feasibility, iteration/evaluation counts, solve wall time,
plus eigenvalue residual or recovery distance when applicable),
``history.csv`` (columns ``iter,f,gradnorm,tau,feas,time_s``),
``config.txt`` (resolved key = value echo), ``x_final.npy``.

Exit codes: 0 converged, 1 configuration error, 2 iteration budget
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

from .linalg import random_rotation, read_mtx, signature, sym, test_matrix
from .manifold import ManifoldSpec, feasibility, make_point
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

PROBLEM_KINDS = ("tracemin", "lrevp", "procrustes", "matexeq")
METRIC_KINDS = ("euclidean", "hessian")
MATRIX_KINDS = ("lehmer", "minij", "kms", "gcdmat", "moler", "tridiag")


class ConfigError(ValueError):
    """Invalid experiment configuration; maps to exit code 1."""


@dataclass
class ExperimentConfig:
    """One experiment: problem kind, sizes, generators, solver knobs, outputs.

    Field names double as config-file keys and (hyphenated) CLI flags.
    """

    problem: str = "tracemin"
    n: int = 200
    p: int = 150
    m: int = 50
    k: int = 5
    kp: int = 3
    km: int = 2
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
        for name in ("n", "p", "m", "k", "kp", "km"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigError(f"{name} = {value} must be nonnegative")
        if self.rstop < 0:
            raise ConfigError(f"rstop = {self.rstop} must be nonnegative")
        if self.max_iter < 1:
            raise ConfigError(f"max_iter = {self.max_iter} must be at least 1")

        if self.problem == "tracemin":
            if self.p + self.m != self.n:
                raise ConfigError(
                    f"p + m = {self.p + self.m} must equal n = {self.n}"
                )
            if self.kp + self.km != self.k:
                raise ConfigError(
                    f"kp + km = {self.kp + self.km} must equal k = {self.k}"
                )
            if self.kp > self.p:
                raise ConfigError(
                    f"kp = {self.kp} exceeds p = {self.p}; the manifold is empty "
                    "unless kp <= p (positive inertia of J bounded by that of A)"
                )
            if self.km > self.m:
                raise ConfigError(
                    f"km = {self.km} exceeds m = {self.m}; the manifold is empty "
                    "unless km <= m (negative inertia of J bounded by that of A)"
                )
            if self.k < 1:
                raise ConfigError(f"k = {self.k} must be at least 1")
        elif self.problem == "lrevp":
            if self.k < 1:
                raise ConfigError(f"k = {self.k} must be at least 1")
            if self.mtx_k is None and self.k > self.p:
                raise ConfigError(
                    f"k = {self.k} exceeds p = {self.p}; lrevp needs k <= p"
                )
        elif self.problem == "procrustes":
            if self.p > self.n:
                raise ConfigError(
                    f"p = {self.p} exceeds n = {self.n}; procrustes needs p <= n"
                )
            if self.l is not None and self.l < 1:
                raise ConfigError(f"l = {self.l} must be at least 1")
        elif self.problem == "matexeq":
            if self.p + self.m != self.n:
                raise ConfigError(
                    f"p + m = {self.p + self.m} must equal n = {self.n}"
                )
            if self.k > self.p:
                raise ConfigError(
                    f"k = {self.k} exceeds p = {self.p}; the manifold is empty "
                    "unless k <= p (positive inertia of J bounded by that of A)"
                )
            if self.k < 1:
                raise ConfigError(f"k = {self.k} must be at least 1")

    def lines(self) -> list[str]:
        """Resolved ``key = value`` echo, one field per line."""
        out = []
        for field_ in dataclasses.fields(self):
            value = getattr(self, field_.name)
            out.append(f"{field_.name} = {'none' if value is None else value}")
        return out


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}
_INT_FIELDS = {"n", "p", "m", "k", "kp", "km", "l", "max_iter", "seed"}
_FLOAT_FIELDS = {"matrix_param", "rstop"}


def _coerce(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    text = raw.strip()
    if text.lower() in ("none", ""):
        return None
    try:
        if key in _INT_FIELDS:
            return int(text)
        if key in _FLOAT_FIELDS:
            return float(text)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {text!r}") from exc
    return text


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
    for field_ in dataclasses.fields(ExperimentConfig):
        flag_value = getattr(args, field_.name, None)
        if flag_value is not None:
            values[field_.name] = flag_value
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    config = ExperimentConfig(**values)
    config.validate()
    return config


def build_problem(config: ExperimentConfig) -> tuple[Problem, np.ndarray, dict]:
    """Instantiate (problem, x0, extras) for the configured benchmark.

    extras carries whatever the summary needs beyond the run record:
    (kp, km) for eigenpair extraction on tracemin/lrevp, the prescribed
    solution for recovery problems.
    """
    rng = np.random.default_rng(config.seed)
    extras: dict = {}

    if config.problem == "tracemin":
        m_mat = test_matrix(config.matrix, config.n, config.matrix_param)
        a_diag = np.concatenate(
            [np.arange(1.0, config.p + 1.0), -np.arange(float(config.m), 0.0, -1.0)]
        )
        problem = trace_min_problem(
            m_mat, np.diag(a_diag), signature(config.kp, config.km),
            metric=config.metric,
        )
        x0 = make_point(problem.spec)
        extras["pencil"] = (m_mat, config.kp, config.km)
        return problem, x0, extras

    if config.problem == "lrevp":
        if (config.mtx_k is None) != (config.mtx_m is None):
            raise ConfigError("lrevp needs both mtx_k and mtx_m, or neither")
        if config.mtx_k is not None:
            k_mat = sym(read_mtx(config.mtx_k))
            m_mat = sym(read_mtx(config.mtx_m))
            if k_mat.shape != m_mat.shape:
                raise ConfigError(
                    f"stiffness is {k_mat.shape}, mass is {m_mat.shape}; "
                    "lrevp needs matching square matrices"
                )
            p = k_mat.shape[0]
            if config.k > p:
                raise ConfigError(f"k = {config.k} exceeds matrix size p = {p}")
        else:
            p = config.p
            k_mat = _random_spd(p, rng)
            m_mat = _random_spd(p, rng)
        problem = lrevp_problem(k_mat, m_mat, config.k, metric=config.metric)
        x0 = lrevp_initial_guess(p, config.k, rng)
        h_mat = np.zeros((2 * p, 2 * p))
        h_mat[:p, :p] = k_mat
        h_mat[p:, p:] = m_mat
        extras["pencil"] = (h_mat, config.k, 0)
        return problem, x0, extras

    if config.problem == "procrustes":
        l = config.l if config.l is not None else config.n
        p, m = config.p, config.n - config.p
        g = rng.standard_normal((l, config.n))
        v1 = random_rotation(p, rng)
        v2 = random_rotation(m, rng)
        v = np.block(
            [[v1, np.zeros((p, m))], [np.zeros((m, p)), v2]]
        )
        b = g @ v
        problem = procrustes_problem(g, b, signature(p, m), metric=config.metric)
        x0 = np.eye(config.n)
        extras["prescribed"] = v
        return problem, x0, extras

    # matexeq
    n, p, m, k = config.n, config.p, config.m, config.k
    basis = np.linalg.qr(rng.standard_normal((n, n)))[0]
    a_eigs = np.concatenate([np.arange(1.0, p + 1.0), -np.arange(float(m), 0.0, -1.0)])
    a = sym((basis * a_eigs) @ basis.T)
    g = test_matrix(config.matrix, n, config.matrix_param)
    spec = ManifoldSpec(a, np.eye(k))
    x_star = make_point(spec, pos_indices=np.arange(k))
    b = g @ x_star
    problem = matrix_equation_problem(g, b, a, metric=config.metric)
    x0 = make_point(problem.spec, pos_indices=np.arange(p - k, p))
    extras["prescribed"] = x_star
    return problem, x0, extras


def _random_spd(p: int, rng: np.random.Generator) -> np.ndarray:
    q = np.linalg.qr(rng.standard_normal((p, p)))[0]
    return sym((q * rng.uniform(0.5, 10.0, p)) @ q.T)


def run_experiment(config: ExperimentConfig) -> tuple[RunRecord, Problem, dict]:
    """Build and solve the configured problem; returns (record, problem, summary)."""
    problem, x0, extras = build_problem(config)
    record = solve(problem, x0, SolverConfig(rstop=config.rstop, max_iter=config.max_iter))
    summary = record.summary()
    summary["problem"] = config.problem
    summary["seed"] = config.seed
    if "pencil" in extras:
        pencil_m, kp, km = extras["pencil"]
        result = extract_eigenpairs(pencil_m, problem.spec, record.x, kp, km)
        summary["eig_rel_err"] = result.rel_err
    if "prescribed" in extras:
        summary["diff"] = float(np.linalg.norm(record.x - extras["prescribed"]))
    if problem.exact_obj is not None:
        summary["exact_obj"] = problem.exact_obj
    return record, problem, summary


def _write_artifacts(
    config: ExperimentConfig, record: RunRecord, summary: dict, out_dir: Path
) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    record.to_csv(out_dir / "history.csv")
    (out_dir / "config.txt").write_text("\n".join(config.lines()) + "\n")
    np.save(out_dir / "x_final.npy", record.x)


_EXIT_BY_STATUS = {"converged": 0, "max_iter": 2, "stalled": 3, "infeasible": 4}


def cmd_run(args: argparse.Namespace) -> int:
    config = load_config(args)
    for line in config.lines():
        print(line)
    record, _, summary = run_experiment(config)
    out_dir = Path(config.out_dir)
    _write_artifacts(config, record, summary, out_dir)
    print(
        f"{summary['status']}: obj={summary['obj']:.9e} gradnorm={summary['gradnorm']:.3e} "
        f"feas={summary['feas']:.3e} iter={summary['iter']} feval={summary['feval']} "
        f"cpu_s={summary['cpu_s']:.3f}"
    )
    print(f"artifacts written to {out_dir}")
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
        record, _, summary = run_experiment(run_config)
        _write_artifacts(run_config, record, summary, Path(run_config.out_dir))
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
VERIFY_CONFIG = ExperimentConfig(n=30, p=20, m=10, k=3, kp=2, km=1)


def _verify_checks():
    """Yield (name, passed, detail) for each check of the smoke test."""
    problem, x0, extras = build_problem(VERIFY_CONFIG)
    feas0 = feasibility(problem.spec, x0)
    yield ("starting point feasible", feas0 <= 1e-10, f"feas={feas0:.2e}")

    record = solve(problem, x0)
    m_mat, kp, km = extras["pencil"]
    _, _, f_star = pencil_oracle(m_mat, problem.spec.A, kp, km)
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="indefstiefel",
        description="Benchmark runner for gradient descent on indefinite Stiefel manifolds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("--config", help="key = value config file; flags override it")
        sp.add_argument("--problem", choices=PROBLEM_KINDS)
        sp.add_argument("--n", type=int)
        sp.add_argument("--p", type=int)
        sp.add_argument("--m", type=int)
        sp.add_argument("--k", type=int)
        sp.add_argument("--kp", type=int)
        sp.add_argument("--km", type=int)
        sp.add_argument("--l", type=int)
        sp.add_argument("--matrix")
        sp.add_argument("--matrix-param", dest="matrix_param", type=float)
        sp.add_argument("--metric", choices=METRIC_KINDS)
        sp.add_argument("--rstop", type=float)
        sp.add_argument("--max-iter", dest="max_iter", type=int)
        sp.add_argument("--seed", type=int)
        sp.add_argument("--out-dir", dest="out_dir")
        sp.add_argument("--mtx-K", dest="mtx_k")
        sp.add_argument("--mtx-M", dest="mtx_m")

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
