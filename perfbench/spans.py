"""Outside-in layer tracing: spans recorded around calls into the library.

The wrappers are installed only for a traced pass and restored afterwards,
so timed passes run the library's own functions untouched.  Each span keeps
its name, start, end, parent span, solve id and the exception type it ended
with; spans stay in memory until the run writes them out.  A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass

import indefstiefel.manifold
import indefstiefel.optimizer
import indefstiefel.retraction
from indefstiefel import CayleyCurve, ManifoldSpec, MetricSpec


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    solve: int | None
    error: str | None = None
    value: float | None = None      # a number read from the call's result


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.solve_id: int | None = None
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self.solve_id)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        except BaseException as exc:
            rec.error = type(exc).__name__
            raise
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn, value_of=None):
        """fn with every call recorded as a span; value_of(result) -> float
        is stored on the span when given."""

        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
                if value_of is not None:
                    rec.value = value_of(out)
                return out

        return traced

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(asdict(rec)) + "\n")


# (owner, attribute, span name, value read from the result)
LIBRARY_PATCHES = (
    (ManifoldSpec, "__init__", "manifold.spec_build", None),
    (MetricSpec, "apply", "manifold.metric_apply", None),
    (MetricSpec, "apply_inverse", "manifold.metric_inverse", None),
    (CayleyCurve, "__init__", "retraction.curve_build", None),
    (CayleyCurve, "at", "retraction.at", None),
    (indefstiefel.optimizer, "riemannian_gradient", "manifold.riemannian_gradient", None),
    (indefstiefel.optimizer, "metric_norm", "manifold.metric_norm", None),
    (indefstiefel.optimizer, "feasibility", "manifold.feasibility", None),
    (indefstiefel.optimizer, "nonmonotone_search", "optimizer.nonmonotone_search", None),
    (indefstiefel.optimizer, "bb_trial_step", "optimizer.bb_trial_step", None),
    (indefstiefel.manifold, "solve_lyapunov", "linalg.solve_lyapunov", None),
    (indefstiefel.retraction, "checked_solve", "linalg.checked_solve", lambda out: float(out[1])),
)


@contextmanager
def installed(tracer: Tracer, problems=()):
    """Wrap the library's layer entry points, and f/egrad of each problem
    instance, for the duration of the block; restore the originals after."""
    targets = list(LIBRARY_PATCHES)
    for problem in problems:
        targets.append((problem, "f", "problems.f", None))
        targets.append((problem, "egrad", "problems.egrad", None))
    saved = []
    try:
        for owner, attr, name, value_of in targets:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(name, original, value_of))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the durations of its direct children."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


def layer_totals(spans: list[Span]) -> dict[str, dict]:
    """Per span name: call count, summed self time, errors raised by type,
    and the smallest recorded value."""
    selfs = self_times(spans)
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "errors": defaultdict(int), "value_min": None}
    )
    for s, self_s in zip(spans, selfs):
        t = out[s.name]
        t["calls"] += 1
        t["self_s"] += self_s
        if s.error is not None:
            t["errors"][s.error] += 1
        if s.value is not None and (t["value_min"] is None or s.value < t["value_min"]):
            t["value_min"] = s.value
    return out
