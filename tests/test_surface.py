"""The package root names the user surface, every library name that the
benchmark harness and the scripts bind resolves (their files are read with
``ast``), no library module imports a private name from a sibling, the
eigenvalue benchmark script runs on a small pencil, and the A/B timing
script runs the checkout against itself."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import indefstiefel
from indefstiefel import CayleyCurve, SolverConfig
from indefstiefel import test_matrix as gallery

ROOT = Path(__file__).resolve().parents[1]
SURFACE = {
    "Problem", "trace_min_problem", "lrevp_problem", "lrevp_initial_guess",
    "procrustes_problem", "matrix_equation_problem",
    "pencil_oracle", "extract_eigenpairs", "solve", "SolverConfig", "RunRecord",
    "ManifoldSpec", "MetricSpec", "make_point", "feasibility",
    "CayleyCurve", "WellDefinednessError", "test_matrix", "signature", "read_mtx",
}


def resolve(name: str):
    """A root name such as ``ManifoldSpec``, or a submodule such as
    ``indefstiefel.optimizer``."""
    if name.startswith("indefstiefel."):
        return importlib.import_module(name)
    return getattr(indefstiefel, name)


def test_root_exports_exactly_the_user_surface():
    bound = {
        name for name, value in vars(indefstiefel).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert len(indefstiefel.__all__) == len(SURFACE) == 20
    assert set(indefstiefel.__all__) == bound == SURFACE


def test_benchmark_and_script_imports_resolve():
    found = []
    for path in sorted(ROOT.glob("perfbench/*.py")) + sorted(ROOT.glob("scripts/*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "indefstiefel":
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names if a.name.startswith("indefstiefel.")]
    assert {name for _, name in found} >= {"solve", "CayleyCurve", "test_matrix", "indefstiefel.optimizer"}
    missing = []
    for where, name in found:
        try:
            resolve(name)
        except (AttributeError, ImportError):
            missing.append((where, name))
    assert not missing


def test_every_library_patch_target_exists():
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    (patches,) = [
        node.value for node in tree.body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "LIBRARY_PATCHES"
    ]
    targets = [(ast.unparse(entry.elts[0]), entry.elts[1].value) for entry in patches.elts]
    assert len(targets) >= 12
    assert [t for t in targets if not hasattr(resolve(t[0]), t[1])] == []


def test_solver_has_no_kernel_choice():
    # the width rule alone picks the kernel, so a benchmark that runs the
    # solver with its config times the library's own choice
    assert "form" not in {f.name for f in dataclasses.fields(SolverConfig)}
    assert list(inspect.signature(CayleyCurve).parameters) == ["spec", "x", "z", "ax"]


def test_eigenvalue_script_runs_a_small_pencil(capsys):
    # calls the script's own code, so a stale library call in it fails here
    run = runpy.run_path(str(ROOT / "scripts" / "run_eigenvalue_benchmarks.py"))["run"]
    a = np.diag(np.concatenate([np.arange(1.0, 21.0), -np.arange(10.0, 0.0, -1.0)]))
    record = run(gallery("lehmer", 30), a, 2, 1, label="lehmer n=30")
    assert record.status == "converged"
    assert "eig_rel=" in capsys.readouterr().out


def test_ab_time_script_runs_the_checkout_against_itself(tmp_path):
    def ab_time(baseline):
        return subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "ab_time.py"), "--workload", "lehmer200",
             "--baseline", str(baseline), "--rounds", "1", "--limit", "2"],
            capture_output=True, text=True, timeout=300,
        )

    done = ab_time(ROOT)
    assert done.returncode == 0, done.stderr
    assert "2 solves per pass" in done.stdout and "median B/A over 1 rounds" in done.stdout
    assert re.search(r"^round 0 set-up: A p50 [0-9.]+ ms \([1-9][0-9]* builds\), "
                     r"B p50 [0-9.]+ ms \([1-9][0-9]* builds\), B/A [0-9.]+$", done.stdout, re.M)
    assert "median set-up B/A over 1 rounds: " in done.stdout
    assert "every solve agrees" in done.stdout
    # a baseline whose first trial step differs solves differently: exit 1
    skip = shutil.ignore_patterns("__pycache__", "out")
    shutil.copytree(ROOT / "src" / "indefstiefel", tmp_path / "src" / "indefstiefel", ignore=skip)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=skip)
    optimizer = tmp_path / "src" / "indefstiefel" / "optimizer.py"
    text = optimizer.read_text()
    assert text.count("gamma0: float = 1e-3") == 1
    optimizer.write_text(text.replace("gamma0: float = 1e-3", "gamma0: float = 2e-3"))
    done = ab_time(tmp_path)
    assert done.returncode == 1
    assert "round 0: solves differ, solve 0: " in done.stdout


def test_no_module_imports_a_private_name_from_a_sibling():
    private = []
    for path in sorted((ROOT / "src" / "indefstiefel").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.level:
                private += [(path.name, a.name) for a in node.names if a.name.startswith("_")]
    assert private == []
