"""Spans around maglab's public functions, and the per-layer metrics made
from them.

The traced run replaces every binding of each wrapped function -- the
defining module's attribute, the same object re-bound by name in the modules
that import it (``cli.ball_magnitude``, ``roots.rational_reconstruct``,
``cloud.FiniteMetricSpace`` ...) and the class attribute for methods -- with a
wrapper that records one span per call: (id, name, start, end, parent, op,
attr).  Nothing under ``src/`` is edited; ``uninstall`` restores every
binding.

A span's parent is the innermost open span of its own thread.  A span opened
on a worker thread with nothing open there (the ``cli._pmap`` pool) takes the
innermost open span of the thread that installed the tracer, which is blocked
in the call that started the pool.  Self time is a span's duration minus the
union of its children's intervals clipped to the span, so overlapping
children on two threads never drive it negative.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple


class Span(NamedTuple):
    id: int
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # 0 for a root span
    op: int | None  # index of the workload operation that caused it
    attr: object  # layer-specific size (points, matrix order ...) or None


class Tracer:
    """In-memory span recorder plus the bindings it replaced."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._home = threading.get_ident()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        return self._stacks.setdefault(threading.get_ident(), [])

    def wrap(self, name, fn, attr=None):
        """``fn`` recording one span per call.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``attr`` maps (args, kwargs, result) to the span's attribute.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                home = self._stacks.get(self._home, [])[-1:]
                parent = home[0] if home else 0
            span_id = next(self._ids)
            stack.append(span_id)
            value = None
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                if attr is not None:
                    value = attr(args, kwargs, result)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                label = name(args, kwargs) if callable(name) else name
                self.spans.append(Span(span_id, label, start, end, parent, self.op, value))

        return traced

    def _replace(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def patch_function(self, module, attr, name, size=None):
        """Wrap ``module.attr`` and every binding of the same object in maglab."""
        original = getattr(module, attr)
        wrapper = self.wrap(name, original, size)
        self._replace(module, attr, wrapper)
        for mod_name, mod in list(sys.modules.items()):
            if mod is module or not (mod_name == "maglab" or mod_name.startswith("maglab.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._replace(mod, key, wrapper)

    def patch_method(self, cls, attr, name, size=None):
        """Wrap a method or classmethod in the class dictionary."""
        raw = cls.__dict__[attr]
        if isinstance(raw, classmethod):
            self._replace(cls, attr, classmethod(self.wrap(name, raw.__func__, size)))
        else:
            self._replace(cls, attr, self.wrap(name, raw, size))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def _order_of_space(args, kwargs, result):
    return len(args[0])


def _sample_size(args, kwargs, result):
    # (points returned, the (shape, spacing) key that makes a sample distinct)
    return [len(result), f"{args[0]!r}@{float(args[1])!r}"]


def install(tracer: Tracer) -> Tracer:
    """Wrap the public functions of every maglab layer the benchmark names."""
    import mpmath

    from maglab import cli, cloud, expopoly, invariants, metric, radial, roots

    fn, method = tracer.patch_function, tracer.patch_method
    fn(cli, "main", "cli.main")
    fn(cli, "emit_report", "cli.emit")
    fn(roots, "ball_pole_zero_census", "roots.census")
    fn(roots, "shell_pole_survey", "roots.survey")
    fn(radial, "rational_reconstruct", "radial.reconstruct")
    fn(mpmath, "polyroots", "radial.polyroots")
    fn(
        radial,
        "ball_magnitude",
        lambda args, kwargs: "radial.ball" if kwargs.get("dps") is None else "radial.ball_mp",
    )
    fn(radial, "shell_magnitude", "radial.shell")
    fn(radial, "solve_exterior", "radial.trace_solve")
    fn(radial, "solve_interior", "radial.trace_solve")
    fn(radial, "exterior_trace_determinant", "radial.trace_det")
    fn(expopoly, "decaying_basis", "expopoly.basis")
    fn(expopoly, "regular_basis_3d", "expopoly.basis")
    method(expopoly.ExpoPoly, "helmholtz_apply", "expopoly.helmholtz")
    method(expopoly.ExpoPoly, "evaluate", "expopoly.evaluate")
    fn(invariants, "fit_leading_coefficients", "invariants.fit")
    fn(invariants, "invariants_from_mesh", "invariants.mesh")
    method(invariants.SurfaceMesh, "__init__", "invariants.mesh_check")
    fn(invariants, "read_off", "invariants.off_read")
    fn(cloud, "sample_domain", "cloud.sample", _sample_size)
    method(metric.FiniteMetricSpace, "__init__", "metric.validate")
    method(metric.FiniteMetricSpace, "from_coordinates", "metric.build")
    fn(metric, "similarity_matrix", "metric.z", _order_of_space)
    fn(metric, "weighting", "metric.solve", _order_of_space)
    fn(metric, "is_positive_definite", "metric.pd")
    fn(metric, "load_point_file", "metric.load")
    return tracer


# -- span arithmetic ----------------------------------------------------------


def covered(lo: int, hi: int, intervals) -> int:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, cursor = 0, lo
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, hi)
        if b > a:
            total += b - a
            cursor = b
    return total


def self_times(spans) -> dict[int, int]:
    """Span id -> duration minus the part of it its children cover (ns)."""
    children = defaultdict(list)
    for s in spans:
        children[s.parent].append((s.start, s.end))
    return {s.id: (s.end - s.start) - covered(s.start, s.end, children[s.id]) for s in spans}


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer values by metric name; zero where a layer was not called.

    ``_calls`` counts spans; ``_self_s`` sums self times; other ``_s`` values
    are the wall time during which at least one span of the layer was open,
    so nested or concurrent calls are not counted twice.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    own = self_times(spans)

    def calls(name):
        return len(by_name[name])

    def busy_s(name):
        return covered(-1, sys.maxsize, [(s.start, s.end) for s in by_name[name]]) / 1e9

    def self_s(name):
        return sum(own[s.id] for s in by_name[name]) / 1e9

    samples = by_name["cloud.sample"]
    solved = [s.attr for s in by_name["metric.solve"]]
    built = [s.attr for s in by_name["metric.z"]]
    out = {
        "cli.calls": calls("cli.main"),
        "cli.self_s": self_s("cli.main"),
        "cli.emit_s": busy_s("cli.emit"),
        "roots.census_self_s": self_s("roots.census"),
        "roots.survey_s": busy_s("roots.survey"),
        "radial.reconstruct_calls": calls("radial.reconstruct"),
        "radial.reconstruct_self_s": self_s("radial.reconstruct"),
        "cloud.sample_calls": len(samples),
        "cloud.sample_s": self_s("cloud.sample"),
        "cloud.points": sum(s.attr[0] for s in samples if s.attr),
        "cloud.distinct_sample_ratio": (
            len({s.attr[1] for s in samples if s.attr}) / len(samples) if samples else 0.0
        ),
        "metric.validate_calls": calls("metric.validate"),
        "metric.validate_s": busy_s("metric.validate"),
        "metric.build_s": self_s("metric.build"),
        "metric.z_s": busy_s("metric.z"),
        "metric.solve_calls": len(solved),
        "metric.solve_s": self_s("metric.solve"),
        "metric.solve_n_max": max([n for n in solved if n] or [0]),
        "metric.chol_gflop": sum(n**3 / 3 for n in solved if n) / 1e9,
        "metric.z_gb": sum(8 * n**2 for n in built if n) / 1e9,
        "metric.pd_s": busy_s("metric.pd"),
        "metric.load_s": self_s("metric.load"),
        "invariants.fit_s": busy_s("invariants.fit"),
        "invariants.mesh_s": busy_s("invariants.mesh"),
        "invariants.mesh_check_s": busy_s("invariants.mesh_check"),
        "invariants.off_read_s": self_s("invariants.off_read"),
    }
    for layer in (
        "radial.polyroots",
        "radial.ball_mp",
        "radial.ball",
        "radial.shell",
        "radial.trace_solve",
        "radial.trace_det",
        "expopoly.basis",
        "expopoly.helmholtz",
        "expopoly.evaluate",
    ):
        out[f"{layer}_calls"] = calls(layer)
        out[f"{layer}_s"] = busy_s(layer)
    return out
