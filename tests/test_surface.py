"""The package root names the user surface, and every library name that the
benchmark harness and the scripts bind resolves (their files are read with
``ast``; none of their code runs here)."""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import indefstiefel

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
