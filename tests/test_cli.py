"""Command-line interface: artifacts, exit codes, config handling."""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.io
import scipy.sparse

from indefstiefel import RunRecord, cli, feasibility, make_point, optimizer
from indefstiefel.manifold import metric_norm, riemannian_gradient
from indefstiefel.optimizer import HISTORY_COLUMNS
from indefstiefel.cli import (
    ExperimentConfig,
    build_parser,
    build_problem,
    load_config,
    main,
    parse_config_file,
)


def run_args(tmp_path, *extra):
    return [
        "run", "--problem", "tracemin", "--n", "30", "--p", "20",
        "--k", "3", "--kp", "2", "--matrix", "tridiag", "--seed", "3",
        "--out-dir", str(tmp_path), *extra,
    ]


def small_config(tmp_path, **overrides):
    base = dict(problem="tracemin", n=30, p=20, k=3, kp=2,
                matrix="tridiag", seed=3, out_dir=str(tmp_path))
    base.update(overrides)
    return ExperimentConfig(**base)


# ----------------------------------------------------------------- run command


def test_run_writes_artifacts(tmp_path):
    assert main(run_args(tmp_path)) == 0
    for name in ("summary.json", "history.csv", "config.txt", "x_final.npy"):
        assert (tmp_path / name).exists(), name

    with open(tmp_path / "history.csv") as fh:
        header = fh.readline().strip()
    assert header == ",".join(HISTORY_COLUMNS) == "iter,f,gradnorm,tau,feas,time_s"

    history = np.loadtxt(tmp_path / "history.csv", delimiter=",", skiprows=1)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "converged"
    assert history.shape[0] == summary["iter"] + 1
    assert history[-1, 1] == pytest.approx(summary["obj"], rel=1e-15)


def test_run_summary_recomputable_from_x_final(tmp_path):
    assert main(run_args(tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    x = np.load(tmp_path / "x_final.npy")

    problem, _, _ = build_problem(small_config(tmp_path))
    assert problem.f(x) == pytest.approx(summary["obj"], rel=1e-12)
    assert feasibility(problem.spec, x) == pytest.approx(summary["feas"], rel=1e-9, abs=1e-15)
    grad = riemannian_gradient(problem.spec, problem.metric, x, problem.metric_grad(x))
    assert metric_norm(problem.metric, x, grad) == pytest.approx(
        summary["gradnorm"], rel=1e-9
    )


def test_run_reports_eigenvalue_error_for_pencil_problems(tmp_path):
    assert main(run_args(tmp_path)) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["eig_rel_err"] <= 1e-6


def test_run_exit_code_distinguishes_max_iter(tmp_path):
    assert main(run_args(tmp_path, "--max-iter", "2")) == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "max_iter"
    assert summary["iter"] == 2


def test_run_exit_code_flags_infeasible_end_point(tmp_path, monkeypatch):
    # a retraction that pushes every trial point off the manifold
    class DriftingCurve(optimizer.CayleyCurve):
        def at(self, t):
            return super().at(t) + 1e-6

    monkeypatch.setattr(optimizer, "CayleyCurve", DriftingCurve)
    assert main(run_args(tmp_path, "--rstop", "1e-3")) == 4
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["status"] == "infeasible"
    history = np.loadtxt(tmp_path / "history.csv", delimiter=",", skiprows=1, ndmin=2)
    assert len(history) == summary["iter"] + 1
    assert history[-1, 4] == pytest.approx(summary["feas"], rel=1e-15)


def test_run_is_deterministic(tmp_path):
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    assert main(run_args(dir_a)) == 0
    assert main(run_args(dir_b)) == 0
    assert np.array_equal(np.load(dir_a / "x_final.npy"), np.load(dir_b / "x_final.npy"))
    sa = json.loads((dir_a / "summary.json").read_text())
    sb = json.loads((dir_b / "summary.json").read_text())
    sa.pop("cpu_s"), sb.pop("cpu_s")
    assert sa == sb


def test_run_procrustes_reports_distance_to_target(tmp_path):
    code = main([
        "run", "--problem", "procrustes", "--n", "20", "--p", "14", "--l", "20",
        "--rstop", "1e-6", "--seed", "1", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["obj"] <= 1e-8
    assert "diff" in summary


def test_run_matexeq_reports_exact_objective(tmp_path):
    code = main([
        "run", "--problem", "matexeq", "--n", "24", "--p", "18",
        "--k", "3", "--matrix", "kms", "--matrix-param", "0.5", "--seed", "2",
        "--out-dir", str(tmp_path),
    ])
    assert code == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["exact_obj"] == 0.0
    assert summary["diff"] <= 1e-6


def test_matexeq_setup_runs_one_eigendecomposition_of_a(monkeypatch, tmp_path):
    # x* and x0 are both built from A's eigenvectors: one n x n eigh serves both
    n, p, k = 24, 18, 3
    config = small_config(tmp_path, problem="matexeq", n=n, p=p, k=k,
                          matrix="kms", matrix_param=0.5)
    shapes = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    problem, x0, x_star = build_problem(config)
    assert shapes.count((n, n)) == 1
    # the same points, bit for bit, as one make_point call each
    assert np.array_equal(x_star, make_point(problem.spec, pos_indices=np.arange(k)))
    assert np.array_equal(x0, make_point(problem.spec, pos_indices=np.arange(p - k, p)))


def test_config_echo_lists_only_fields_the_problem_reads(tmp_path, capsys):
    first, second = tmp_path / "first", tmp_path / "second"
    assert main([
        "run", "--problem", "procrustes", "--n", "20", "--p", "14", "--rstop", "1e-6",
        "--seed", "1", "--out-dir", str(first),
    ]) == 0
    echo = (first / "config.txt").read_text()
    assert echo in capsys.readouterr().out
    keys = {line.split(" = ")[0] for line in echo.splitlines()}
    assert keys.isdisjoint({"k", "kp", "matrix", "matrix_param", "mtx_k", "mtx_m"})
    assert {"n", "p", "l", "seed", "rstop"} <= keys
    # the echo is a config file that reproduces the run
    assert main(["run", "--config", str(first / "config.txt"), "--out-dir", str(second)]) == 0
    summaries = [json.loads((d / "summary.json").read_text()) for d in (first, second)]
    for summary in summaries:
        summary.pop("cpu_s")
    assert summaries[0] == summaries[1]


def test_run_lrevp_from_matrix_market_files(tmp_path):
    rng = np.random.default_rng(0)
    for name in ("K", "M"):
        w = rng.standard_normal((8, 8))
        scipy.io.mmwrite(str(tmp_path / f"{name}.mtx"), w @ w.T + 8 * np.eye(8))
    out = tmp_path / "out"
    code = main([
        "run", "--problem", "lrevp", "--k", "2",
        "--mtx-k", str(tmp_path / "K.mtx"), "--mtx-m", str(tmp_path / "M.mtx"),
        "--seed", "0", "--out-dir", str(out),
    ])
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["eig_rel_err"] <= 1e-6


# ------------------------------------------------------------------ bad inputs


def test_empty_manifold_rejected_with_named_inequality(tmp_path, capsys):
    code = main(run_args(tmp_path, "--kp", "25", "--k", "26"))
    assert code == 1
    err = capsys.readouterr().err
    # the library's message names both positive inertias
    assert err.startswith("config error:") and "i+(J) = 25 exceeds i+(A) = 20" in err
    assert not (tmp_path / "summary.json").exists()  # rejected before the solve


@pytest.mark.parametrize("argv, mtx_shapes", [
    (["--problem", "tracemin", "--n", "30", "--p", "2", "--k", "3", "--kp", "3"], None),
    (["--problem", "tracemin", "--n", "30", "--p", "28", "--k", "5", "--kp", "1"], None),
    (["--problem", "lrevp", "--p", "4", "--k", "5"], None),
    (["--problem", "lrevp", "--k", "4"], ((3, 3), (3, 3))),
    (["--problem", "lrevp", "--k", "1"], ((3, 3), (4, 4))),
    (["--problem", "lrevp", "--k", "1"], ((3, 4), (3, 3))),
    (["--problem", "matexeq", "--n", "12", "--p", "3", "--k", "4"], None),
], ids=["tracemin_kp_over_p", "tracemin_km_over_m", "lrevp_k_over_p", "lrevp_mtx_k_over_p",
        "lrevp_mtx_orders_differ", "lrevp_mtx_k_not_square", "matexeq_k_over_p"])
def test_inputs_the_library_rejects_exit_1_without_artifacts(tmp_path, capsys, argv, mtx_shapes):
    # the library, not the CLI, checks these: the empty manifolds i+-(J) >
    # i+-(A), and lrevp's K and M orders and k <= p
    if mtx_shapes is not None:
        for name, shape in zip(("K", "M"), mtx_shapes):
            scipy.io.mmwrite(str(tmp_path / f"{name}.mtx"), np.eye(*shape))
        argv = [*argv, "--mtx-k", str(tmp_path / "K.mtx"), "--mtx-m", str(tmp_path / "M.mtx")]
    out = tmp_path / "out"
    assert main(["run", *argv, "--out-dir", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("sparse", [False, True], ids=["array", "coordinate"])
def test_complex_matrix_market_file_is_a_config_error(tmp_path, capsys, sparse):
    # a complex K is refused, not cast to its real part and solved
    k = np.array([[4.0, 1.0j], [-1.0j, 3.0]])
    scipy.io.mmwrite(str(tmp_path / "K.mtx"), scipy.sparse.coo_matrix(k) if sparse else k)
    scipy.io.mmwrite(str(tmp_path / "M.mtx"), np.eye(2))
    out = tmp_path / "out"
    code = main([
        "run", "--problem", "lrevp", "--k", "1",
        "--mtx-k", str(tmp_path / "K.mtx"), "--mtx-m", str(tmp_path / "M.mtx"),
        "--out-dir", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "complex" in err
    assert not out.exists()


@pytest.mark.parametrize("metric", ["hessian", "euclidean"])
def test_indefinite_stiffness_matrix_is_a_config_error(tmp_path, capsys, metric):
    # the library rejects K; the CLI reports it as a bad input, not a crash
    scipy.io.mmwrite(str(tmp_path / "K.mtx"), np.diag([1.0, -2.0, 3.0]))
    scipy.io.mmwrite(str(tmp_path / "M.mtx"), np.eye(3))
    out = tmp_path / "out"
    code = main([
        "run", "--problem", "lrevp", "--k", "1", "--metric", metric,
        "--mtx-k", str(tmp_path / "K.mtx"), "--mtx-m", str(tmp_path / "M.mtx"),
        "--max-iter", "50", "--out-dir", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "positive definite" in err
    assert not out.exists()


def test_unknown_problem_rejected(tmp_path, capsys):
    # flag and config file go through the same validation
    assert main(["run", "--problem", "maxcut", "--out-dir", str(tmp_path)]) == 1
    assert "maxcut" in capsys.readouterr().err
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("problem = maxcut\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert "maxcut" in capsys.readouterr().err


def test_unknown_matrix_rejected(tmp_path, capsys):
    assert main(run_args(tmp_path, "--matrix", "hilbert")) == 1
    assert "hilbert" in capsys.readouterr().err


def test_nonpositive_dimension_rejected(tmp_path, capsys):
    assert main(run_args(tmp_path, "--k", "0")) == 1
    assert "k" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["run", "--metric", "riemannian"],   # bad choice
    ["run", "--n", "abc"],               # bad int
    ["run", "--m", "10"],                # m = n - p is no longer an option
    ["batch", "--km", "1"],              # nor is km = k - kp
    [],                                  # no subcommand
])
def test_usage_errors_exit_1_not_2(capsys, argv):
    # exit code 2 means "iteration budget exhausted", not a bad command line
    assert main(argv) == 1
    assert "config error" in capsys.readouterr().err


def test_flags_mirror_config_keys(tmp_path):
    # every field is a flag of the same name (hyphenated), parsed like the file
    values = {"problem": "procrustes", "n": "12", "p": "8", "k": "4", "kp": "1",
              "l": "15", "matrix": "kms", "matrix_param": "0.25", "metric": "euclidean",
              "rstop": "1e-7", "max_iter": "40", "seed": "6", "out_dir": str(tmp_path),
              "mtx_k": "K.mtx", "mtx_m": "M.mtx"}
    assert set(values) == {f.name for f in dataclasses.fields(ExperimentConfig)}
    cfg = tmp_path / "all.cfg"
    cfg.write_text("".join(f"{key} = {raw}\n" for key, raw in values.items()))
    flags = [tok for key, raw in values.items() for tok in ("--" + key.replace("_", "-"), raw)]
    from_flags = load_config(build_parser().parse_args(["run", *flags]))
    from_file = load_config(build_parser().parse_args(["run", "--config", str(cfg)]))
    assert from_flags == from_file == ExperimentConfig(**parse_config_file(cfg))
    assert from_flags.matrix_param == 0.25 and from_flags.max_iter == 40


# ----------------------------------------------------------------- config file


def test_config_file_parsing(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(
        "# benchmark setup\n"
        "problem = tracemin\n"
        "n = 30\n"
        "p = 20\n"
        "kp = 2\n"
        "\n"
        "matrix = lehmer\n"
        "rstop = 1e-8\n"
    )
    config = parse_config_file(cfg)
    assert config == {
        "problem": "tracemin", "n": 30, "p": 20, "kp": 2,
        "matrix": "lehmer", "rstop": 1e-8,
    }
    args = build_parser().parse_args(["run", "--config", str(cfg), "--k", "3"])
    loaded = load_config(args)
    assert loaded.matrix == "lehmer"
    assert loaded.rstop == 1e-8
    assert loaded.k == 3    # flag merged in
    assert loaded.seed == 0  # default survives


def test_flags_override_config_file(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 30\np = 20\nk = 3\nkp = 2\nseed = 5\n")
    code = main(["run", "--config", str(cfg), "--matrix", "tridiag",
                 "--seed", "9", "--out-dir", str(tmp_path / "out")])
    assert code == 0
    summary = json.loads((tmp_path / "out" / "summary.json").read_text())
    assert summary["seed"] == 9
    assert "seed = 9" in (tmp_path / "out" / "config.txt").read_text()


def test_config_file_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n = 30\nstepsize = 0.1\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert "stepsize" in capsys.readouterr().err


def test_config_file_rejects_malformed_line(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("n 30\n")
    assert main(["run", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert "n 30" in capsys.readouterr().err


def test_missing_config_file_is_a_config_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "absent.cfg")]) == 1
    assert "absent.cfg" in capsys.readouterr().err


# ---------------------------------------------------------------- batch command


def test_batch_runs_seed_sweep(tmp_path):
    code = main([
        "batch", "--problem", "tracemin", "--n", "30", "--p", "20", "--k", "3",
        "--kp", "2", "--matrix", "tridiag", "--seed", "3",
        "--n-seeds", "3", "--out-dir", str(tmp_path),
    ])
    assert code == 0
    batch = json.loads((tmp_path / "batch_summary.json").read_text())
    assert len(batch["runs"]) == 3
    assert [r["seed"] for r in batch["runs"]] == [3, 4, 5]
    assert batch["mean"]["n_converged"] == 3
    objs = [r["obj"] for r in batch["runs"]]
    assert batch["mean"]["obj"] == pytest.approx(np.mean(objs), rel=1e-12)
    for seed in (3, 4, 5):
        assert (tmp_path / f"seed_{seed}" / "summary.json").exists()


def test_batch_worst_exit_code_wins(tmp_path):
    code = main([
        "batch", "--problem", "tracemin", "--n", "30", "--p", "20", "--k", "3",
        "--kp", "2", "--matrix", "tridiag", "--seed", "3",
        "--n-seeds", "2", "--max-iter", "2", "--out-dir", str(tmp_path),
    ])
    assert code == 2
    batch = json.loads((tmp_path / "batch_summary.json").read_text())
    assert batch["mean"]["n_converged"] == 0


# --------------------------------------------------------------- verify command


def test_verify_passes_and_reports_each_check(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    for check in ("starting point feasible", "dense pencil oracle", "end point feasible"):
        assert any(ln.startswith("pass") and check in ln for ln in lines), check
    assert not any(ln.startswith("FAIL") for ln in lines)
    assert lines[-1] == "all checks passed"


def test_verify_fails_on_wrong_end_point(monkeypatch, capsys):
    # a solver that reports convergence at a scaled start: off the manifold
    # and away from the oracle's minimum
    def wrong_solve(problem, x0, config=None):
        x = 1.01 * x0
        return RunRecord(status="converged", x=x, rows=[(0, problem.f(x), 0.0, 0.0, 0.0, 0.0)])

    monkeypatch.setattr(cli, "solve", wrong_solve)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "pass  starting point feasible" in out
    assert "FAIL  solver matches the dense pencil oracle" in out
    assert "FAIL  end point feasible" in out
    assert "2 failure(s)" in out


# ---------------------------------------------------- checked-in batch configs


def test_script_configs_parse_and_validate():
    # building each problem runs the checks that the library makes
    paths = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.cfg"))
    assert len(paths) >= 3
    for path in paths:
        config = ExperimentConfig(**parse_config_file(path))
        config.validate()
        build_problem(config)


def test_parity_script_compares_runs(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "parity.py"

    def parity(*args):
        return subprocess.run(
            [sys.executable, str(script), *map(str, args)], capture_output=True, text=True, timeout=300
        )

    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        done = parity("--workload", "lehmer200", "--seed", "0", "--limit", "1", "--out", path)
        assert done.returncode == 0, done.stderr
    assert parity("--compare", paths[0], paths[0]).returncode == 0
    assert parity("--compare", *paths).returncode == 0
    data = json.loads(paths[1].read_text())
    (solve,) = data["solves"]
    assert solve["status"] == "converged" and len(solve["history"]) == solve["iters"] + 1
    f_a = solve["history"][-1][1]
    f_b = solve["history"][-1][1] = np.nextafter(f_a, np.inf)
    paths[1].write_text(json.dumps(data))
    done = parity("--compare", *paths)
    assert done.returncode == 1
    assert "solve 0: history differs" in done.stdout
    # a change that is not bitwise gets its distribution reported
    iters, fevals = solve["iters"], solve["fevals"]
    for path in paths:
        assert f"{path}: iters [{iters}] median {iters} range {iters}-{iters}" in done.stdout
        assert f"{path}: fevals [{fevals}] median {fevals} range {fevals}-{fevals}" in done.stdout
        assert f"{path}: largest final feasibility {solve['history'][-1][4]:.3e}" in done.stdout
    gap = abs(f_b - f_a) / abs(solve["history"][0][1])  # scaled by the start objective
    assert gap > 0
    assert f"over final objectives: {gap:.3e}" in done.stdout
    # several A B pairs, one per seed: each pair's first difference, then the
    # pooled per-solve counts with a sum per file
    pair = [tmp_path / "a1.json", tmp_path / "b1.json"]
    data["seed"] = 1
    pair[0].write_text(json.dumps(data))
    solve["iters"] += 2
    pair[1].write_text(json.dumps(data))
    done = parity("--compare", *paths, *pair)
    assert done.returncode == 1
    assert "solve 0: history differs" in done.stdout and "solve 0: iters differs" in done.stdout
    assert f"A: iters median {iters} mean {iters:.2f} over 2 solves; sums {paths[0]} (seed 0) {iters} " \
        f"{pair[0]} (seed 1) {iters}" in done.stdout
    assert f"B: iters median {iters + 1} mean {iters + 1:.2f} over 2 solves; sums {paths[1]} (seed 0) {iters} " \
        f"{pair[1]} (seed 1) {iters + 2}" in done.stdout
    assert f"B: fevals median {fevals} mean {fevals:.2f} over 2 solves" in done.stdout
    assert f"over final objectives: {gap:.3e}" in done.stdout
    assert parity("--compare", *paths, paths[0]).returncode == 2  # not in pairs
    assert parity("--compare", paths[0], paths[0], pair[1], pair[1]).returncode == 0
