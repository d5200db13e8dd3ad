"""Per-layer spans around shapederiv's public functions, installed from outside.

The package binds many functions by name (``from .stokes_fem import
solve_stokes``), so a wrapper must replace every module attribute through
which the package resolves a function, not only the defining one.
``Tracer.install`` therefore scans every loaded ``shapederiv`` module for
attributes that are the original object and swaps them all;
``Tracer.uninstall`` puts each original back.

Spans are kept in memory: name, start, end, parent span and the op they
belong to.  A span's self time is its duration minus the durations of its
direct children (calls are sequential, so children never overlap).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
from dataclasses import dataclass
from time import perf_counter

from shapederiv.errors import ShapeDerivError

# Span name -> the public callables it wraps, as (defining module, attribute).
# A dotted attribute names a method on a class.
SPANS: dict[str, tuple[tuple[str, str], ...]] = {
    "mesh.generate": (("shapederiv.mesh", "unit_square_mesh"), ("shapederiv.mesh", "disk_mesh")),
    "mesh.transport": (("shapederiv.mesh", "transport_mesh"),),
    "flow.integrate": (("shapederiv.flow", "integrate_flow"),),
    "stokes_fem.space": (("shapederiv.stokes_fem", "FunctionSpace.__init__"),),
    "stokes_fem.assemble": (("shapederiv.stokes_fem", "assemble"),),
    "stokes_fem.solve": (("shapederiv.stokes_fem", "solve_stokes"),),
    "stokes_fem.energy": (("shapederiv.stokes_fem", "energy"),),
    "stokes_fem.inf_sup": (("shapederiv.stokes_fem", "inf_sup_constant"),),
    "shape_derivative.perturbation": (("shapederiv.shape_derivative", "assemble_perturbation"),),
    "shape_derivative.derivative": (("shapederiv.shape_derivative", "stokes_shape_derivative"),),
    "shape_derivative.fd_verify": (("shapederiv.shape_derivative", "fd_verify"),),
    "core_minimax.solve": (("shapederiv.core_minimax", "solve_saddle_point"),),
    "core_minimax.derivative": (("shapederiv.core_minimax", "shape_derivative"),),
    "core_minimax.fd": (("shapederiv.core_minimax", "fd_derivative"),),
    "core_minimax.lbb": (("shapederiv.core_minimax", "check_lbb"),),
    "core_minimax.load": (("shapederiv.core_minimax", "load_qp"),),
    "cli.parse": (("shapederiv.cli.config", "parse_config"),),
    "cli.run": (("shapederiv.cli", "run"),),
    "cli.report": (("shapederiv.cli.report", "ReportWriter.write"),),
}


def _solve_unknowns(fn):
    sig = inspect.signature(fn)

    def count(args, kwargs, result):
        bound = sig.bind(*args, **kwargs)
        bound.apply_defaults()
        system = bound.arguments["system"]
        pinned = 1 if bound.arguments["pin_pressure"] else 0
        return system.A.shape[0] + system.B.shape[0] - pinned

    return count


def _active_set_size(fn):
    def count(args, kwargs, result):
        return 0 if result.active_set is None else len(result.active_set)

    return count


# Counters read at a span boundary: span name -> (counter name, factory that
# builds the counting function from the wrapped callable).
COUNTERS = {
    "stokes_fem.solve": ("stokes_fem.solve.unknowns", _solve_unknowns),
    "core_minimax.solve": ("core_minimax.active_set", _active_set_size),
}


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 at top level
    op: int
    failed: bool = False


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "shapederiv" or name.startswith("shapederiv."))]


class Tracer:
    """Installs span wrappers on the package and collects the spans."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, list[float]] = {c: [] for c, _ in COUNTERS.values()}
        self.op = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        # Import every traced module first: a module imported while wrappers
        # are installed would bind the wrappers and keep them after uninstall.
        for targets in SPANS.values():
            for module_name, _ in targets:
                importlib.import_module(module_name)
        modules = _package_modules()
        for name, targets in SPANS.items():
            for module_name, attr in targets:
                module = sys.modules[module_name]
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    owner = getattr(module, cls_name)
                    self._swap(owner, meth, self._wrap(name, vars(owner)[meth]))
                    continue
                orig = getattr(module, attr)
                wrapper = self._wrap(name, orig)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is orig:
                            self._swap(mod, key, wrapper)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, orig = self._restore.pop()
            setattr(owner, key, orig)

    def _swap(self, owner, key, wrapper) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, wrapper)

    def _wrap(self, name: str, fn):
        tracer = self
        counter_name, factory = COUNTERS.get(name, (None, None))
        counter = factory(fn) if factory else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op)
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except ShapeDerivError:
                span.failed = True
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
            if counter is not None:
                tracer.counts[counter_name].append(counter(args, kwargs, result))
            return result

        return wrapper

    @staticmethod
    def wrapper_cost(calls: int = 20000) -> float:
        """Seconds a span wrapper adds to one call, timed on a no-op (median
        of 5 batches), so that the tracing overhead can be stated apart
        from run-to-run noise."""
        def noop():
            return None

        wrapped = Tracer()._wrap("mesh.generate", noop)
        costs = []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            t1 = perf_counter()
            for _ in range(calls):
                wrapped()
            costs.append((perf_counter() - t1 - (t1 - t0)) / calls)
        return statistics.median(costs)

    def calls(self, op: int) -> dict[str, int]:
        """Calls per span name within one op."""
        out = dict.fromkeys(SPANS, 0)
        for span in self.spans:
            if span.op == op:
                out[span.name] += 1
        return out

    def layer_table(self, num_ops: int) -> dict[str, tuple[float, str]]:
        """Per-op calls, self time and failures for every span name, plus the
        counters; a span with no calls reports zeros."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        calls = dict.fromkeys(SPANS, 0)
        self_s = dict.fromkeys(SPANS, 0.0)
        failed = dict.fromkeys(SPANS, 0)
        for span, child in zip(self.spans, child_time):
            calls[span.name] += 1
            self_s[span.name] += span.end - span.start - child
            failed[span.name] += span.failed
        table: dict[str, tuple[float, str]] = {}
        for name in SPANS:
            table[f"{name}.calls"] = (calls[name] / num_ops, "calls/op")
            table[f"{name}.self_s"] = (self_s[name] / num_ops, "s/op")
            table[f"{name}.failed"] = (failed[name] / num_ops, "errors/op")
        table["stokes_fem.solve.unknowns"] = (sum(self.counts["stokes_fem.solve.unknowns"]) / num_ops, "rows/op")
        sizes = self.counts["core_minimax.active_set"]
        table["core_minimax.active_set"] = (sum(sizes) / len(sizes) if sizes else 0.0, "rows/solve")
        return table
