"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from indefstiefel import solve  # noqa: E402
from indefstiefel import test_matrix as gallery  # noqa: E402

import harness  # noqa: E402
import run  # noqa: E402
from spans import LIBRARY_PATCHES, Span, Tracer, installed, self_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS, Instance, Workload, block_rotation, pinned_full_form, signature,
)


def small_instance(n_rot: int = 2) -> Instance:
    a = np.diag(np.concatenate([np.arange(1.0, 21.0), -np.arange(10.0, 0.0, -1.0)]))
    rng = np.random.default_rng(0)
    rots = tuple(block_rotation(2, 1, rng) for _ in range(n_rot))
    return Instance("tracemin", (gallery("lehmer", 30), a, signature(2, 1)), rots)


SMALL = Workload("small", lambda seed: [small_instance()], pinned_full_form(rstop=1e-9))


def test_self_times_of_synthetic_nested_spans():
    # root [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [5, 9]
    spans = [
        Span("root", 0.0, 10.0, None, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("c", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == [3.0, 2.0, 1.0, 4.0]
    assert sum(self_times(spans)) == 10.0


def test_tracer_records_nesting_and_errors():
    tracer = Tracer()
    tracer.solve_id = 7

    def inner():
        raise ValueError("boom")

    with tracer.span("outer"):
        with pytest.raises(ValueError):
            tracer.wrap("inner", inner)()
        tracer.wrap("value", lambda: (None, 0.5), lambda out: out[1])()
    outer, failed, valued = tracer.spans
    assert (failed.parent, valued.parent, outer.parent) == (0, 0, None)
    assert failed.error == "ValueError" and outer.error is None
    assert valued.value == 0.5
    assert all(s.solve == 7 for s in tracer.spans)
    assert sum(self_times(tracer.spans)) == pytest.approx(outer.end - outer.start, abs=1e-12)


def test_traced_run_restores_every_wrapped_attribute():
    targets = [(owner, attr) for owner, attr, _, _ in LIBRARY_PATCHES]
    originals = [getattr(owner, attr) for owner, attr in targets]
    seen = {}

    class Spy(Tracer):
        def wrap(self, name, fn, value_of=None):
            seen[name] = fn
            return super().wrap(name, fn, value_of)

    problem = small_instance().factory()
    f, egrad = problem.f, problem.egrad
    with installed(Spy(), [problem]):
        assert all(getattr(o, a) is not orig for (o, a), orig in zip(targets, originals))
        assert problem.f is not f and problem.egrad is not egrad
    assert all(getattr(o, a) is orig for (o, a), orig in zip(targets, originals))
    assert problem.f is f and problem.egrad is egrad
    assert seen["problems.f"] is f

    out = harness.traced_run(SMALL, 0, 0.0)
    assert out["failed"] == 0
    assert all(getattr(o, a) is orig for (o, a), orig in zip(targets, originals))


def test_correctness_check_flags_infeasible_point_and_wrong_objective():
    inst = small_instance()
    problem = inst.factory()
    record = solve(problem, inst.start(problem), SMALL.config)
    ref = inst.reference()
    good = harness.check_solve(inst, ref, record.x, record.obj, record.status)
    assert good["ok"], good["reasons"]

    x_bad = record.x + 1e-6 * np.random.default_rng(1).standard_normal(record.x.shape)
    bad = harness.check_solve(inst, ref, x_bad, inst.objective(x_bad), "converged")
    assert not bad["ok"] and any("feasibility" in r for r in bad["reasons"])

    wrong = harness.check_solve(inst, ref, record.x, record.obj * 1.01, "converged")
    assert not wrong["ok"] and any("reported objective" in r for r in wrong["reasons"])

    start = inst.start(problem)  # feasible, but far from the minimum
    far = harness.check_solve(inst, ref, start, inst.objective(start), "converged")
    assert not far["ok"] and any("oracle" in r for r in far["reasons"])

    for status, error in (("max_iter", None), (None, "ValueError: x")):
        assert not harness.check_solve(inst, ref, None, None, status, error)["ok"]


def test_procrustes_check_requires_zero_objective():
    inst = WORKLOADS["procrustes200"].instances(0)[0]
    g, b, j = inst.mats
    v = np.linalg.solve(g, b)  # the exact minimizer of the consistent instance
    assert harness.check_solve(inst, 0.0, v, inst.objective(v), "converged")["ok"]
    eye = np.eye(g.shape[1])  # feasible, objective far above zero
    assert not harness.check_solve(inst, 0.0, eye, inst.objective(eye), "converged")["ok"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_inputs_are_deterministic_per_seed(name):
    make = WORKLOADS[name].instances
    first, again, other = make(3), make(3), make(4)
    flat = lambda insts: [m for i in insts for m in (*i.mats, *i.rotations)]
    assert all(np.array_equal(x, y) for x, y in zip(flat(first), flat(again), strict=True))
    assert not all(np.array_equal(x, y) for x, y in zip(flat(first), flat(other), strict=True))


def test_starts_are_feasible_with_the_canonical_objective():
    inst = WORKLOADS["lehmer200"].instances(0)[0]
    problem = inst.factory()
    x0 = inst.start(problem)
    a, j = inst.constraint()
    for x in inst.starts(x0):
        assert np.linalg.norm(x.T @ a @ x - j) <= 1e-12
        assert inst.objective(x) == pytest.approx(inst.objective(x0), rel=1e-12)


def test_runs_report_the_metrics_benchmark_json_declares():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)
    timed = harness.timed_run(SMALL, 0, 0.0)
    traced = harness.traced_run(SMALL, 0, 0.0)
    assert timed["failed"] == traced["failed"] == 0
    assert set(timed["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    for declared in spec["end_to_end"] + spec["per_layer"]:
        out = timed if declared in spec["end_to_end"] else traced
        assert out["metrics"][declared["name"]][1] == declared["unit"], declared["name"]


def test_thread_pin_refuses_once_numpy_is_loaded():
    with pytest.raises(RuntimeError, match="already loaded"):
        run.pin_threads()
