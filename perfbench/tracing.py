"""Spans around cuspforge's public functions, recorded from outside the package.

`install` replaces each traced function at every name binding a caller
uses: the defining module, every cuspforge module that imported the name,
and the package namespace.  Each span records its id, its parent's id, the
op it belongs to, start and end times, the exception type if it raised,
and a few counts read off the result.  Spans stay in memory; the runner
writes them out when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

# (module, function); the span takes the function's name.
TRACED = (
    ("cuspforge.manifold", "parse_triangulation"),
    ("cuspforge.holonomy", "mu"),
    ("cuspforge.holonomy", "cusp_parameter"),
    ("cuspforge.holonomy", "evaluate_cusp_parameter"),
    ("cuspforge.solver", "solve_complete"),
    ("cuspforge.solver", "solve_filled"),
    ("cuspforge.solver", "trace_completeness_curve"),
    ("cuspforge.solver", "numerical_kernel"),
    ("cuspforge.solver", "completeness_system"),
    ("cuspforge.numberlab", "algdep"),
    ("cuspforge.isolation", "isolation_verdict"),
    ("cuspforge.isolation", "tau_derivatives"),
    ("cuspforge.screen", "screen"),
    ("cuspforge.screen", "screen_triangulation"),
    ("cuspforge.screen", "fill_and_screen"),
    ("cuspforge.screen", "reports_to_csv"),
    ("cuspforge.screen", "write_reports"),
)

SOLVER_NAMES = ("solve_complete", "solve_filled")
SCREEN_NAMES = ("screen", "screen_triangulation", "fill_and_screen")
EMIT_NAMES = ("to_json", "reports_to_csv", "write_reports")


def _solve_counts(span: dict, fn, args, kwargs, result, exc) -> None:
    """Iterations, start attempts and convergence of a solver span."""
    if exc is None:
        span["iterations"] = result.iterations
        span["starts"] = result.restarts_used + 1
        span["converged"] = 1
    elif "did not converge" in str(exc):
        # the start search gave up after its whole restart schedule
        bound = inspect.signature(fn).bind(*args, **kwargs)
        bound.apply_defaults()
        span["starts"] = bound.arguments["restarts"] + 1
        span["converged"] = 0


class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.recording = False
        self.op: str | None = None

    @contextlib.contextmanager
    def record(self, op: str):
        """Record spans, tagged with `op`, for the duration of the block."""
        self.op, self.recording = op, True
        try:
            yield
        finally:
            self.recording = False

    def span(self, name: str, fn, args=(), kwargs=None):
        """Call fn(*args, **kwargs) inside a span named `name`."""
        kwargs = kwargs or {}
        if not self.recording:
            return fn(*args, **kwargs)
        span = {"id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "op": self.op, "start": time.perf_counter()}
        self.spans.append(span)
        self._stack.append(span["id"])
        result = exc = None
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as err:
            exc = err
            span["error"] = type(err).__name__
            raise
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()
            if name in SOLVER_NAMES:
                _solve_counts(span, fn, args, kwargs, result, exc)


def install(tracer: Tracer):
    """Wrap every TRACED function at every cuspforge binding of it, and
    ScreenReport.to_json; returns a function that puts the originals back."""
    import cuspforge.screen

    modules = [m for key, m in list(sys.modules.items())
               if key == "cuspforge" or key.startswith("cuspforge.")]
    restore = []
    for module, name in TRACED:
        original = getattr(sys.modules[module], name)
        wrapper = _wrap(tracer, name, original)
        for owner in modules:
            for key, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, key, wrapper)
                    restore.append((owner, key, original))
    report = cuspforge.screen.ScreenReport
    restore.append((report, "to_json", report.to_json))
    report.to_json = _wrap(tracer, "to_json", report.to_json)

    def uninstall():
        for owner, key, original in reversed(restore):
            setattr(owner, key, original)
    return uninstall


def _wrap(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.span(name, fn, args, kwargs)
    return traced


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def _ancestors(spans: list[dict], span: dict):
    parent = span["parent"]
    while parent is not None:
        yield spans[parent]
        parent = spans[parent]["parent"]


def _outermost(spans: list[dict], names) -> list[dict]:
    return [s for s in spans if s["name"] in names
            and not any(a["name"] in names for a in _ancestors(spans, s))]


def _under(spans: list[dict], name: str, ancestor: str) -> list[dict]:
    return [s for s in spans if s["name"] == name
            and any(a["name"] == ancestor for a in _ancestors(spans, s))]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[dict], recognized: int, overhead_share: float) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced run.

    `recognized` counts algdep calls whose polynomial the op's reference
    check accepted; it comes from the checks, not from the spans.
    """
    def named(name):
        return [s for s in spans if s["name"] == name]

    def total(chosen):
        return sum(_duration(s) for s in chosen)

    children: dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]] = children.get(s["parent"], 0.0) + _duration(s)

    complete = named("solve_complete")
    filled = [s for s in named("solve_filled")
              if s["parent"] is None or spans[s["parent"]]["name"] != "solve_complete"]
    solves = _outermost(spans, SOLVER_NAMES)
    starts = sum(s.get("starts", 0) for s in solves)
    algdep = named("algdep")
    resolve = _under(spans, "solve_complete", "isolation_verdict")
    screen_spans = [s for s in spans if s["name"] in SCREEN_NAMES]

    metrics = {}

    def timed(key, chosen):
        metrics[f"{key}_s"] = (total(chosen), "s")
        metrics[f"{key}_calls"] = (len(chosen), "count")

    timed("manifold.parse", named("parse_triangulation"))
    timed("holonomy.mu", named("mu"))
    timed("holonomy.cusp_parameter", named("cusp_parameter"))
    timed("holonomy.evaluate_cusp_parameter", named("evaluate_cusp_parameter"))
    timed("solver.solve_complete", complete)
    metrics["solver.solve_complete_failed"] = (sum("error" in s for s in complete), "count")
    metrics["solver.solve_complete_iterations"] = (
        sum(s.get("iterations", 0) for s in complete), "count")
    metrics["solver.start_attempts"] = (starts, "count")
    metrics["solver.start_yield"] = (
        _ratio(sum(s.get("converged", 0) for s in solves), starts), "ratio")
    timed("solver.solve_filled", filled)
    metrics["solver.solve_filled_iterations"] = (
        sum(s.get("iterations", 0) for s in filled), "count")
    metrics["solver.solve_filled_failed"] = (sum("error" in s for s in filled), "count")
    timed("solver.trace_curve", named("trace_completeness_curve"))
    timed("solver.numerical_kernel", named("numerical_kernel"))
    timed("solver.completeness_system", named("completeness_system"))
    timed("numberlab.algdep", algdep)
    metrics["numberlab.algdep_raised"] = (sum("error" in s for s in algdep), "count")
    metrics["numberlab.algdep_recognized"] = (_ratio(recognized, len(algdep)), "ratio")
    timed("isolation.verdict", named("isolation_verdict"))
    timed("isolation.tau_derivatives", named("tau_derivatives"))
    timed("isolation.resolve_2p", resolve)
    metrics["isolation.fallback_calls"] = (
        len(_under(spans, "trace_completeness_curve", "isolation_verdict")), "count")
    metrics["screen.self_s"] = (
        sum(_duration(s) - children.get(s["id"], 0.0) for s in screen_spans), "s")
    metrics["screen.emit_s"] = (total(_outermost(spans, EMIT_NAMES)), "s")
    metrics["trace_overhead_share"] = (overhead_share, "ratio")
    return metrics
