"""Timed and traced runs of one workload, the per-solve correctness check, and
the metrics computed from them.

A run builds every instance several times (set-up), then cycles through its
solves -- every start of every instance, in a fixed order -- until the
measuring time is spent, and at least once.  Only ``solve()`` is inside the
timed region.  After timing, each instance's reference is computed and every
solve is checked.  A repeated solve is checked through the first solve of the
same start when its result is bitwise identical, and on its own otherwise.
"""

from __future__ import annotations

import gc
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from indefstiefel import solve

from workloads import Instance, Workload

# The acceptance suite's bounds.
FEAS_TOL = 1e-10           # ||X^T A X - J||_F
ORACLE_REL_TOL = 1e-6      # |f - f*| / |f*| against pencil_oracle (tracemin)
PROCRUSTES_OBJ_TOL = 1e-7  # consistent procrustes: f* = 0
OBJ_MATCH_TOL = 1e-9       # reported objective vs the objective recomputed at X

SETUP_MIN_REPS = 5
SETUP_MIN_S = 1.0
SETUP_MAX_REPS = 1000


def check_solve(instance: Instance, reference: float, x, obj, status, error=None) -> dict:
    """Correctness record of one solve; ``ok`` is False with ``reasons`` when
    it raised, did not converge, is infeasible, reports an objective that is
    not the one at its X, or misses the reference."""
    rec = {"status": status, "error": error, "obj": obj, "feas": None, "oracle_err": None}
    reasons = []
    if error is not None:
        reasons.append(f"raised {error}")
    elif status != "converged":
        reasons.append(f"status {status}")
    if x is not None:
        a, j = instance.constraint()
        feas = float(np.linalg.norm(x.T @ (a @ x) - j))
        f_x = instance.objective(x)
        rec["feas"] = feas
        if not feas <= FEAS_TOL:
            reasons.append(f"feasibility {feas:.3e} > {FEAS_TOL:g}")
        if not abs(obj - f_x) <= OBJ_MATCH_TOL * max(1.0, abs(f_x)):
            reasons.append(f"reported objective {obj!r} but f(X) = {f_x!r}")
        if instance.kind == "tracemin":
            err = abs(f_x - reference) / abs(reference)
            bound = ORACLE_REL_TOL
        else:
            err = f_x - reference
            bound = PROCRUSTES_OBJ_TOL
        rec["oracle_err"] = err
        if not err <= bound:
            reasons.append(f"oracle error {err:.3e} > {bound:g}")
    rec["ok"] = not reasons
    rec["reasons"] = reasons
    return rec


@dataclass
class Job:
    """One start of one instance, solved once per pass."""

    instance: int
    start: int
    problem: object
    x0: np.ndarray
    times: list = field(default_factory=list)
    traced_times: list = field(default_factory=list)
    first: dict | None = None          # result of the first solve
    identical: int = 0                 # later solves bitwise equal to it
    divergent: list = field(default_factory=list)


def _result(record, error) -> dict:
    if record is None:
        return {"x": None, "obj": None, "status": None, "iters": 0, "fevals": 0, "error": error}
    return {"x": record.x, "obj": record.obj, "status": record.status,
            "iters": record.n_iter, "fevals": record.n_feval, "error": None}


def _same(a: dict, b: dict) -> bool:
    if a["x"] is None or b["x"] is None:
        return a["error"] == b["error"]
    return (a["status"] == b["status"] and a["iters"] == b["iters"]
            and a["fevals"] == b["fevals"] and np.array_equal(a["x"], b["x"]))


def run_job(job: Job, config, times: list) -> None:
    t0 = time.perf_counter()
    try:
        record, error = solve(job.problem, job.x0, config), None
    except Exception as exc:  # a solve that raises is a failed operation, not a crashed run
        record, error = None, "".join(traceback.format_exception_only(exc)).strip()
    times.append(time.perf_counter() - t0)
    res = _result(record, error)
    if job.first is None:
        job.first = res
    elif _same(job.first, res):
        job.identical += 1
    else:
        job.divergent.append(res)


def setup(workload: Workload, seed: int, tracer=None):
    """Generate the inputs, then build every instance at least once (and
    until SETUP_MIN_REPS builds and SETUP_MIN_S seconds are reached).
    Returns (instances, jobs, build times)."""
    instances = workload.instances(seed)
    built = [None] * len(instances)
    times = []
    t_begin = time.perf_counter()
    rep = 0
    while rep < max(len(instances), SETUP_MIN_REPS) or (
        time.perf_counter() - t_begin < SETUP_MIN_S and rep < SETUP_MAX_REPS
    ):
        inst = instances[rep % len(instances)]
        built[rep % len(instances)] = None  # release the previous build first
        t0 = time.perf_counter()
        if tracer is None:
            problem = inst.factory()
            x0 = inst.start(problem)
        else:
            with tracer.span("problems.build"):
                problem = inst.factory()
            with tracer.span("manifold.make_point"):
                x0 = inst.start(problem)
        times.append(time.perf_counter() - t0)
        built[rep % len(instances)] = (problem, x0)
        rep += 1
    jobs = [
        Job(i, s, problem, x)
        for i, (inst, (problem, x0)) in enumerate(zip(instances, built))
        for s, x in enumerate(inst.starts(x0))
    ]
    return instances, jobs, times


def check_all(instances, jobs) -> tuple[list[dict], int, int]:
    """Check every solve; returns (records, attempted, failed)."""
    refs = [inst.reference() for inst in instances]
    records, attempted, failed = [], 0, 0
    for job in jobs:
        inst, ref = instances[job.instance], refs[job.instance]
        for res, count in [(job.first, 1 + job.identical)] + [(d, 1) for d in job.divergent]:
            chk = check_solve(inst, ref, res["x"], res["obj"], res["status"], res["error"])
            chk.update(instance=job.instance, start=job.start, iters=res["iters"],
                       fevals=res["fevals"], solves=count, divergent_repeat=res is not job.first)
            records.append(chk)
            attempted += count
            failed += 0 if chk["ok"] else count
    return records, attempted, failed


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples: list[float]) -> dict | None:
    """Highest of p99/p95/p90/p75 with at least ten samples beyond it."""
    n = len(samples)
    for p in (99, 95, 90, 75):
        if n * (100 - p) / 100 >= 10:
            return {"p": p, "value": float(np.percentile(samples, p)), "samples": n}
    return None


def timed_run(workload: Workload, seed: int, seconds: float) -> dict:
    instances, jobs, setup_times = setup(workload, seed)
    gc.collect()
    t_end = time.perf_counter() + seconds
    i = 0
    while i < len(jobs) or time.perf_counter() < t_end:
        job = jobs[i % len(jobs)]
        run_job(job, workload.config, job.times)
        i += 1
    rss = peak_rss_mb()
    records, attempted, failed = check_all(instances, jobs)
    pooled = [t for job in jobs for t in job.times]
    metrics = {
        "solve_s.p50": (statistics.median(pooled), "s"),
        "solve_s.total": (sum(statistics.median(job.times) for job in jobs), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "iters": (sum(job.first["iters"] for job in jobs), "count"),
        "fevals": (sum(job.first["fevals"] for job in jobs), "count"),
        "peak_rss_mb": (rss, "MB"),
    }
    report = {
        "failed_frac": failed / attempted,
        "solves": len(pooled),
        "distinct_solves": len(jobs),
        "setup_reps": len(setup_times),
        "solve_s.tail": tail_percentile(pooled),
        "nondeterministic_repeats": sum(len(job.divergent) for job in jobs),
    }
    return {"metrics": metrics, "report": report, "records": records,
            "attempted": attempted, "failed": failed}


def traced_run(workload: Workload, seed: int, seconds: float, spans_path=None) -> dict:
    """Alternate untraced and traced passes over all solves until the time is
    spent (at least one of each); layer metrics come from the traced passes."""
    from spans import Tracer, installed, layer_totals, self_times

    setup_tracer = Tracer()
    with installed(setup_tracer):
        instances, jobs, _ = setup(workload, seed, setup_tracer)
    problems = list({id(job.problem): job.problem for job in jobs}.values())
    gc.collect()
    pass_tracers = []
    t_end = time.perf_counter() + seconds
    passes = 0
    while passes < 2 or time.perf_counter() < t_end:
        if passes % 2 == 0:
            for job in jobs:
                run_job(job, workload.config, job.times)
        else:
            tracer = Tracer()
            with installed(tracer, problems):
                for sid, job in enumerate(jobs):
                    tracer.solve_id = sid
                    with tracer.span("optimizer.solve"):
                        run_job(job, workload.config, job.traced_times)
            pass_tracers.append(tracer)
        passes += 1
    records, attempted, failed = check_all(instances, jobs)

    worst_gap = 0.0
    for tracer in pass_tracers:
        totals, roots = defaultdict(float), {}
        for s, self_s in zip(tracer.spans, self_times(tracer.spans)):
            totals[s.solve] += self_s
            if s.name == "optimizer.solve":
                roots[s.solve] = s.end - s.start
        worst_gap = max([worst_gap] + [abs(totals[sid] - d) for sid, d in roots.items()])
    if worst_gap > 1e-9:
        raise RuntimeError(f"span self times do not add up to the solve span ({worst_gap:.3e} s)")

    iters = sum(job.first["iters"] for job in jobs)
    per_pass = [_layer_metrics(layer_totals(t.spans), iters) for t in pass_tracers]
    metrics = {}
    for name, (_, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        value = values[0] if unit != "s" else statistics.median(values)
        metrics[name] = (value, unit)

    setup_spans = setup_tracer.spans
    setup_selfs = self_times(setup_spans)
    for metric, span_name in (("problems.build_s", "problems.build"),
                              ("manifold.spec_build_s", "manifold.spec_build"),
                              ("manifold.make_point_s", "manifold.make_point")):
        vals = [t for s, t in zip(setup_spans, setup_selfs) if s.name == span_name]
        metrics[metric] = (statistics.median(vals), "s")

    traced = sum(statistics.median(job.traced_times) for job in jobs)
    untraced = sum(statistics.median(job.times) for job in jobs)
    metrics["trace.solve_s.total"] = (traced, "s")
    metrics["trace.untraced_solve_s.total"] = (untraced, "s")
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "1")

    if spans_path is not None:
        spans_path.parent.mkdir(parents=True, exist_ok=True)
        setup_tracer.write(spans_path.with_name(spans_path.stem + "-setup.jsonl"))
        pass_tracers[0].write(spans_path)
    report = {"failed_frac": failed / attempted, "traced_passes": len(pass_tracers),
              "untraced_passes": passes - len(pass_tracers), "max_self_time_gap_s": worst_gap}
    return {"metrics": metrics, "report": report, "records": records,
            "attempted": attempted, "failed": failed}


def _layer_metrics(t: dict, iters: int) -> dict:
    """Per-layer metrics of one traced pass from its per-name totals."""

    def calls(name):
        return t[name]["calls"] if name in t else 0

    def self_s(*names):
        return sum(t[n]["self_s"] for n in names if n in t)

    def errors(name, kind):
        return t[name]["errors"].get(kind, 0) if name in t else 0

    trials = calls("retraction.at")
    rcond = t["linalg.checked_solve"]["value_min"] if "linalg.checked_solve" in t else None
    return {
        "problems.f.calls": (calls("problems.f"), "count"),
        "problems.f.self_s": (self_s("problems.f"), "s"),
        "problems.egrad.calls": (calls("problems.egrad"), "count"),
        "problems.egrad.self_s": (self_s("problems.egrad"), "s"),
        "manifold.metric_inverse.calls": (calls("manifold.metric_inverse"), "count"),
        "manifold.metric_inverse.self_s": (self_s("manifold.metric_inverse"), "s"),
        "manifold.metric_apply.self_s": (self_s("manifold.metric_apply"), "s"),
        "manifold.feasibility.self_s": (self_s("manifold.feasibility"), "s"),
        "manifold.riemannian_gradient.self_s": (self_s("manifold.riemannian_gradient"), "s"),
        "manifold.metric_norm.self_s": (self_s("manifold.metric_norm"), "s"),
        "linalg.solve_lyapunov.calls": (calls("linalg.solve_lyapunov"), "count"),
        "linalg.solve_lyapunov.self_s": (self_s("linalg.solve_lyapunov"), "s"),
        "linalg.checked_solve.calls": (calls("linalg.checked_solve"), "count"),
        "linalg.checked_solve.self_s": (self_s("linalg.checked_solve"), "s"),
        "linalg.checked_solve.rejected": (errors("linalg.checked_solve", "LinAlgError"), "count"),
        "linalg.checked_solve.rcond_min": (rcond if rcond is not None else 0.0, "1"),
        "retraction.curve_build.calls": (calls("retraction.curve_build"), "count"),
        "retraction.curve_build.self_s": (self_s("retraction.curve_build"), "s"),
        "retraction.at.calls": (trials, "count"),
        "retraction.at.self_s": (self_s("retraction.at"), "s"),
        "retraction.at.breakdowns": (errors("retraction.at", "WellDefinednessError"), "count"),
        "optimizer.self_s": (self_s("optimizer.solve", "optimizer.nonmonotone_search",
                                    "optimizer.bb_trial_step"), "s"),
        "optimizer.backtracks": (trials - iters, "count"),
        "optimizer.accept_ratio": (iters / trials if trials else 0.0, "1"),
    }
