"""Per-layer tracing of qfibath, installed from the benchmark's side.

Each traced function is looked up by name in the module that defines it. Every
alias of it in another qfibath module's namespace (`from .x import f`) is then
replaced by a wrapper, so the calls one layer makes into the layer below go
through the wrapper; calls inside the defining module do not. A function that
no longer exists is reported as absent and its metrics read 0, so the trace
keeps working when later versions of the package drop or rename functions.

Three kinds of wrapper:
  span   one span per call: name, start, end, parent, request id
  hot    integrand evaluations, millions per run: counted and timed, with the
         count and time summed into the enclosing span instead of a span each
  count  counted only, summed into the enclosing span

Spans stay in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import importlib
import statistics
import sys
from contextlib import contextmanager
from time import perf_counter

SPAN, HOT, COUNT = "span", "hot", "count"

# (layer, defining module, function name, kind). The hot functions are the
# spectral_bath integrands; their time is that layer's self time.
TARGETS = (
    ("sweep_optimize", "qfibath.sweep_optimize", "density_grid", SPAN),
    ("sweep_optimize", "qfibath.sweep_optimize", "optimal_time", SPAN),
    ("sweep_optimize", "qfibath.sweep_optimize", "sweep", SPAN),
    ("qfi_engine", "qfibath.qfi_engine", "qfi_point", SPAN),
    ("decoherence", "qfibath.decoherence", "gamma", SPAN),
    ("decoherence", "qfibath.decoherence", "gamma_partial", SPAN),
    ("decoherence", "scipy.integrate", "quad", COUNT),
    ("spectral_bath", "qfibath.spectral_bath", "gamma_integrand", HOT),
    ("spectral_bath", "qfibath.spectral_bath", "gamma_integrand_partial", HOT),
)

LAYERS = ("cli", "sweep_optimize", "qfi_engine", "decoherence", "spectral_bath")

# every per-layer metric a traced run reports, with its unit
UNITS = {
    "spectral_bath.integrand_calls": "count",
    "spectral_bath.self_s": "s",
    "spectral_bath.ns_per_call": "ns",
    "decoherence.gamma_calls": "count",
    "decoherence.partial_calls": "count",
    "decoherence.quad_calls": "count",
    "decoherence.evals_per_gamma": "count",
    "decoherence.self_s": "s",
    "decoherence.convergence_errors": "count",
    "qfi_engine.qfi_point_calls": "count",
    "qfi_engine.self_s": "s",
    "sweep_optimize.self_s": "s",
    "sweep_optimize.qfi_points_per_result": "count",
    "cli.self_s": "s",
    "cli.bytes_out": "B",
    "trace.overhead_s": "s",
}


class Span:
    """One traced call; `parent` and `index` are positions in `Tracer.spans`."""

    __slots__ = ("index", "name", "layer", "start", "end", "parent", "request",
                 "hot_calls", "hot_s", "counted", "results", "error")

    def __init__(self, index, name, layer, parent, request):
        self.index, self.name, self.layer = index, name, layer
        self.parent, self.request = parent, request
        self.start = self.end = 0.0
        self.hot_calls, self.hot_s, self.counted, self.results = 0, 0.0, 0, 0
        self.error = None

    def as_list(self) -> list:
        return [getattr(self, field) for field in self.__slots__]


def _result_count(value) -> int:
    """Results a sweep_optimize call produced: table rows or samples, else 1."""
    for field in ("samples", "rows"):
        rows = getattr(value, field, None)
        if rows is not None:
            return len(rows)
    return 1


class Tracer:
    """Collects spans of one or more traced passes; install() before, uninstall() after."""

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.absent: list[str] = []
        self._patched: list[tuple[object, str, object]] = []

    def install(self) -> None:
        self.absent = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "qfibath" or name.startswith("qfibath."))]
        for layer, module_name, func_name, kind in self.targets:
            try:
                home = importlib.import_module(module_name)
            except ImportError:
                home = None
            fn = getattr(home, func_name, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{func_name}")
                continue
            wrapper = self._wrap(fn, f"{layer}.{func_name}", layer, kind)
            for module in modules:
                if module is home:
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._patched.append((module, attr, fn))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched = []

    def _wrap(self, fn, name, layer, kind):
        stack = self.stack
        if kind == HOT:
            def hot(*args, **kwargs):
                top = stack[-1]
                t0 = perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    top.hot_s += perf_counter() - t0
                    top.hot_calls += 1
            return hot
        if kind == COUNT:
            def count(*args, **kwargs):
                stack[-1].counted += 1
                return fn(*args, **kwargs)
            return count

        def span(*args, **kwargs):
            with self.span(name, layer) as record:
                value = fn(*args, **kwargs)
                if layer == "sweep_optimize":
                    record.results = _result_count(value)
                return value
        return span

    @contextmanager
    def span(self, name: str, layer: str, request: int | None = None):
        """One span around the with-block; `request` defaults to the parent's."""
        parent = self.stack[-1] if self.stack else None
        if request is None and parent is not None:
            request = parent.request
        record = Span(len(self.spans), name, layer,
                      parent.index if parent is not None else None, request)
        self.spans.append(record)
        self.stack.append(record)
        record.start = perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = perf_counter()
            self.stack.pop()


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, given the spans it recorded."""
    child_s = [0.0] * len(spans)
    first = spans[0].index if spans else 0
    for span in spans:
        if span.parent is not None and span.parent >= first:
            child_s[span.parent - first] += span.end - span.start
    self_s = dict.fromkeys(LAYERS, 0.0)
    calls: dict[str, int] = {}
    for span, children in zip(spans, child_s):
        self_s[span.layer] += span.end - span.start - children - span.hot_s
        self_s["spectral_bath"] += span.hot_s
        calls[span.name] = calls.get(span.name, 0) + 1
    gamma_spans = [s for s in spans if s.name == "decoherence.gamma"]
    integrand_calls = sum(s.hot_calls for s in spans)
    in_sweep = _count_below(spans, "qfi_engine.qfi_point", "sweep_optimize")
    results = sum(s.results for s in spans if s.layer == "sweep_optimize")
    return {
        "spectral_bath.integrand_calls": integrand_calls,
        "spectral_bath.self_s": self_s["spectral_bath"],
        "spectral_bath.ns_per_call":
            1e9 * self_s["spectral_bath"] / integrand_calls if integrand_calls else 0.0,
        "decoherence.gamma_calls": len(gamma_spans),
        "decoherence.partial_calls": calls.get("decoherence.gamma_partial", 0),
        "decoherence.quad_calls": sum(s.counted for s in spans),
        "decoherence.evals_per_gamma":
            sum(s.hot_calls for s in gamma_spans) / len(gamma_spans) if gamma_spans else 0.0,
        "decoherence.self_s": self_s["decoherence"],
        "decoherence.convergence_errors": sum(
            1 for s in spans if s.layer == "decoherence" and s.error == "ConvergenceError"),
        "qfi_engine.qfi_point_calls": calls.get("qfi_engine.qfi_point", 0),
        "qfi_engine.self_s": self_s["qfi_engine"],
        "sweep_optimize.self_s": self_s["sweep_optimize"],
        "sweep_optimize.qfi_points_per_result": in_sweep / results if results else 0.0,
        "cli.self_s": self_s["cli"],
    }


def _count_below(spans: list[Span], name: str, layer: str) -> int:
    """Spans called `name` with an ancestor in `layer`."""
    first = spans[0].index if spans else 0
    count = 0
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent >= first:
            ancestor = spans[parent - first]
            if ancestor.layer == layer:
                count += 1
                break
            parent = ancestor.parent
    return count


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Each metric's median over passes."""
    return {key: statistics.median(m[key] for m in per_pass) for key in per_pass[0]}
