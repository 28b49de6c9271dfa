"""Spans and work counts around the public functions of each cdeigen module.

The library has no tracing of its own, so ``install`` replaces every
binding of the traced functions (modules import several of them by name)
with a wrapper that records a span: name, parent span, start, end, self
time and the counts read from the function's return value.  Two private
call sites are counted without spans: the LAPACK tridiagonal factorization
and solve (one ``dpttrs`` per inverse iteration) and the Gauss-Kronrod
panel.  Spans stay in memory; ``layer_metrics`` reduces them at the end.

Recording is thread-safe: each thread keeps its own span stack, and the
shared span list and counters are updated under one lock.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
import types
from collections import defaultdict

import numpy as np

# Per-layer counts that must repeat exactly on the same seed; the other
# per-layer metrics are times or ratios of times.
COUNT_METRICS = (
    "eigensolve.solve.calls", "eigensolve.solve.errors",
    "eigensolve.assemble.calls", "eigensolve.assemble.nodes",
    "eigensolve.final_nodes", "eigensolve.inverse_iterations",
    "eigensolve.factorizations", "eigensolve.flux_check.calls",
    "eigensolve.flux_check.rejects", "eigensolve.shooting.calls",
    "eigensolve.ode.calls", "eigensolve.ode.nfev",
    "eigensolve.quadrature.calls", "eigensolve.quadrature.panels",
    "modelspace.density_eval.calls", "modelspace.density_eval.points",
    "modelspace.cd_scan.calls", "modelspace.cd_scan.triples",
    "modelspace.cd_scan.rejects", "comparison.residual.calls",
    "comparison.rigidity.calls", "comparison.model_solves",
    "bounds.bessel_zero.calls", "bounds.bessel_zero.misses",
    "bounds.closed_form.calls", "physics.optimal.calls",
    "physics.objective.calls", "physics.objective.infeasible",
)

TIME_METRICS = (
    "eigensolve.solve.self_ms", "eigensolve.assemble.self_ms",
    "eigensolve.flux_check.self_ms", "eigensolve.shooting.self_ms",
    "eigensolve.quadrature.self_ms", "modelspace.density_eval.self_ms",
    "modelspace.cd_scan.self_ms", "comparison.residual.self_ms",
    "comparison.rigidity.self_ms", "bounds.bessel_zero.self_ms",
    "bounds.closed_form.self_ms", "physics.optimal.self_ms",
    "physics.objective.self_ms",
)

RATIO_METRICS = ("comparison.model_reuse_ratio", "bounds.bessel_zero.hit_ratio")

CLI_METRICS = ("cli.interpreter_ms", "cli.import_ms", "cli.main.calls", "cli.main.self_ms",
               "cli.sweep.parallelism")

TRACE_METRICS = ("trace.overhead_ms", "trace.count_drift", "trace.coverage_errors")

SOLVE = "eigensolve.solve"


class Recorder:
    """Spans and counters of one process."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        # (name, parent, start, end, self_s, error_code, counts)
        self.spans: list[tuple] = []
        self.counters: dict[str, int] = defaultdict(int)

    def stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def count(self, key: str, n: int = 1) -> None:
        with self._lock:
            self.counters[key] += n

    def wrap(self, name: str, fn, counts=None, collapse=False):
        """Span wrapper.  ``counts(args, kwargs, result)`` reads work counts
        from a successful call; ``collapse`` folds a call made inside a span
        of the same name into that span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self.stack()
            if collapse and stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            error = None
            extra = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                if counts is not None:
                    extra = counts(args, kwargs, result)
                return result
            except BaseException as exc:
                error = getattr(exc, "code", type(exc).__name__)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                parent = stack[-1] if stack else None
                if parent is not None:
                    parent[1] += end - start
                with self._lock:
                    self.spans.append((name, parent[0] if parent else None, start, end,
                                       end - start - frame[1], error, extra))

        return wrapper

    def counted(self, key: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(key)
            return fn(*args, **kwargs)

        return wrapper


def _package_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if name == "cdeigen" or name.startswith("cdeigen.")]


def _solver_tol(args, kwargs) -> float:
    if "tol" in kwargs:
        return float(kwargs["tol"])
    return float(args[2]) if len(args) > 2 else 1e-8


def install(rec: Recorder) -> dict:
    """Wrap every binding of the traced functions; returns the state needed
    by ``layer_metrics`` (the Bessel cache statistics at install time)."""
    import cdeigen.cli  # noqa: F401  (binds library functions by name)
    from cdeigen import bounds, comparison, eigensolve, modelspace, physics

    tols = threading.local()

    def current_tol() -> float:
        stack = getattr(tols, "stack", None)
        return stack[-1] if stack else 1e-8

    solve_span = rec.wrap(SOLVE, eigensolve.first_dirichlet_eigen, collapse=True,
                          counts=lambda a, k, r: {"final_nodes": int(r.grid.size)})

    @functools.wraps(eigensolve.first_dirichlet_eigen)
    def solve(*args, **kwargs):
        stack = getattr(tols, "stack", None)
        if stack is None:
            stack = tols.stack = []
        stack.append(_solver_tol(args, kwargs))
        try:
            return solve_span(*args, **kwargs)
        finally:
            stack.pop()

    def flux_counts(a, k, r):
        return {"rejects": int(r > 100.0 * current_tol())}

    bessel_cache = bounds.bessel_first_zero

    replacements = {
        eigensolve.first_dirichlet_eigen: solve,
        eigensolve.assemble_weighted_problem: rec.wrap(
            "eigensolve.assemble", eigensolve.assemble_weighted_problem,
            counts=lambda a, k, r: {"nodes": int(r.nodes.size)}),
        eigensolve.flux_identity_residual: rec.wrap(
            "eigensolve.flux_check", eigensolve.flux_identity_residual, counts=flux_counts),
        eigensolve.shoot_eigen: rec.wrap("eigensolve.shooting", eigensolve.shoot_eigen),
        eigensolve.solve_ivp: rec.wrap(
            "eigensolve.ode", eigensolve.solve_ivp,
            counts=lambda a, k, r: {"nfev": int(r.nfev)}),
        eigensolve.weighted_integral: rec.wrap(
            "eigensolve.quadrature", eigensolve.weighted_integral),
        eigensolve._gk_panel: rec.counted("gk_panel", eigensolve._gk_panel),
        modelspace.check_cd_density: rec.wrap(
            "modelspace.cd_scan", modelspace.check_cd_density,
            counts=lambda a, k, r: {"triples": int(r.triples_checked),
                                    "rejects": int(not r.satisfied)}),
        comparison.comparison_residual: rec.wrap(
            "comparison.residual", comparison.comparison_residual),
        comparison.rigidity_check: rec.wrap("comparison.rigidity", comparison.rigidity_check),
        bessel_cache: rec.wrap("bounds.bessel_zero", bessel_cache),
        bounds.closed_form_bound: rec.wrap("bounds.closed_form", bounds.closed_form_bound),
        physics.kk_mass_bound_optimal: rec.wrap(
            "physics.optimal", physics.kk_mass_bound_optimal),
        # The objective turns PreconditionError("infeasible") into +inf;
        # the span keeps the code, which counts the infeasible points.
        physics.kk_mass_bound_at: rec.wrap("physics.objective", physics.kk_mass_bound_at),
    }
    for module in _package_modules():
        for attr, value in list(vars(module).items()):
            if callable(value) and value in replacements:
                setattr(module, attr, replacements[value])

    density_call = modelspace.Density.__call__
    modelspace.Density.__call__ = rec.wrap(
        "modelspace.density_eval", density_call,
        counts=lambda a, k, r: {"points": int(np.size(a[1]))})

    lapack = eigensolve.lapack
    eigensolve.lapack = types.SimpleNamespace(
        dpttrf=rec.counted("dpttrf", lapack.dpttrf),
        dpttrs=rec.counted("dpttrs", lapack.dpttrs),
    )
    return {"bessel_cache": bessel_cache, "bessel_info": bessel_cache.cache_info(),
            "originals": set(replacements)}


def unwrapped_bindings(state: dict) -> list[str]:
    """Bindings in cdeigen modules that still point at an original function."""
    return [f"{module.__name__}.{attr}" for module in _package_modules()
            for attr, value in vars(module).items()
            if callable(value) and value in state["originals"]]


def _sum(spans, name, key=None) -> float:
    if key is None:
        return float(sum(s[4] for s in spans if s[0] == name))
    return float(sum(s[6][key] for s in spans if s[0] == name and s[6]))


def layer_metrics(rec: Recorder, state: dict | None = None) -> dict[str, float]:
    """Reduce spans and counters to the named per-layer metrics (zero for a
    layer the workload does not reach)."""
    spans = rec.spans
    calls = defaultdict(int)
    errors = defaultdict(int)
    for s in spans:
        calls[s[0]] += 1
        if s[5] is not None:
            errors[s[0]] += 1

    def ms(name):
        return 1e3 * _sum(spans, name)

    m: dict[str, float] = {}
    m["eigensolve.solve.calls"] = calls[SOLVE]
    m["eigensolve.solve.self_ms"] = ms(SOLVE)
    m["eigensolve.solve.errors"] = errors[SOLVE]
    m["eigensolve.assemble.calls"] = calls["eigensolve.assemble"]
    m["eigensolve.assemble.nodes"] = _sum(spans, "eigensolve.assemble", "nodes")
    m["eigensolve.assemble.self_ms"] = ms("eigensolve.assemble")
    m["eigensolve.final_nodes"] = _sum(spans, SOLVE, "final_nodes")
    m["eigensolve.inverse_iterations"] = rec.counters["dpttrs"]
    m["eigensolve.factorizations"] = rec.counters["dpttrf"]
    m["eigensolve.flux_check.calls"] = calls["eigensolve.flux_check"]
    m["eigensolve.flux_check.rejects"] = _sum(spans, "eigensolve.flux_check", "rejects")
    m["eigensolve.flux_check.self_ms"] = ms("eigensolve.flux_check")
    m["eigensolve.shooting.calls"] = calls["eigensolve.shooting"]
    m["eigensolve.shooting.self_ms"] = ms("eigensolve.shooting")
    m["eigensolve.ode.calls"] = calls["eigensolve.ode"]
    m["eigensolve.ode.nfev"] = _sum(spans, "eigensolve.ode", "nfev")
    m["eigensolve.quadrature.calls"] = calls["eigensolve.quadrature"]
    m["eigensolve.quadrature.panels"] = rec.counters["gk_panel"]
    m["eigensolve.quadrature.self_ms"] = ms("eigensolve.quadrature")
    m["modelspace.density_eval.calls"] = calls["modelspace.density_eval"]
    m["modelspace.density_eval.points"] = _sum(spans, "modelspace.density_eval", "points")
    m["modelspace.density_eval.self_ms"] = ms("modelspace.density_eval")
    m["modelspace.cd_scan.calls"] = calls["modelspace.cd_scan"]
    m["modelspace.cd_scan.triples"] = _sum(spans, "modelspace.cd_scan", "triples")
    m["modelspace.cd_scan.rejects"] = _sum(spans, "modelspace.cd_scan", "rejects")
    m["modelspace.cd_scan.self_ms"] = ms("modelspace.cd_scan")
    m["comparison.residual.calls"] = calls["comparison.residual"]
    m["comparison.residual.self_ms"] = ms("comparison.residual")
    m["comparison.rigidity.calls"] = calls["comparison.rigidity"]
    m["comparison.rigidity.self_ms"] = ms("comparison.rigidity")
    solves_in_residual = sum(1 for s in spans if s[0] == SOLVE and s[1] == "comparison.residual")
    m["comparison.model_solves"] = solves_in_residual
    residuals = calls["comparison.residual"]
    m["comparison.model_reuse_ratio"] = (
        1.0 - solves_in_residual / residuals if residuals else 0.0)
    m["bounds.bessel_zero.calls"] = calls["bounds.bessel_zero"]
    misses = 0
    if state is not None:
        info = state["bessel_cache"].cache_info()
        misses = info.misses - state["bessel_info"].misses
    m["bounds.bessel_zero.misses"] = misses
    zero_calls = calls["bounds.bessel_zero"]
    m["bounds.bessel_zero.hit_ratio"] = 1.0 - misses / zero_calls if zero_calls else 0.0
    m["bounds.bessel_zero.self_ms"] = ms("bounds.bessel_zero")
    m["bounds.closed_form.calls"] = calls["bounds.closed_form"]
    m["bounds.closed_form.self_ms"] = ms("bounds.closed_form")
    m["physics.optimal.calls"] = calls["physics.optimal"]
    m["physics.optimal.self_ms"] = ms("physics.optimal")
    m["physics.objective.calls"] = calls["physics.objective"]
    m["physics.objective.infeasible"] = sum(
        1 for s in spans if s[0] == "physics.objective" and s[5] == "infeasible")
    m["physics.objective.self_ms"] = ms("physics.objective")
    return m


def merge(parts: list[dict[str, float]]) -> dict[str, float]:
    """Sum per-layer metrics of several processes; ratios are recomputed."""
    out: dict[str, float] = defaultdict(float)
    for part in parts:
        for k, v in part.items():
            out[k] += v
    residuals = out["comparison.residual.calls"]
    out["comparison.model_reuse_ratio"] = (
        1.0 - out["comparison.model_solves"] / residuals if residuals else 0.0)
    zero_calls = out["bounds.bessel_zero.calls"]
    out["bounds.bessel_zero.hit_ratio"] = (
        1.0 - out["bounds.bessel_zero.misses"] / zero_calls if zero_calls else 0.0)
    return dict(out)
