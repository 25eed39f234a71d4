"""Span recorder for the traced benchmark run.

The recorder wraps public fanomode functions from the outside: each wrapper
replaces the function where it is defined and everywhere it is looked up
(``fanomode.cli`` and ``fanomode.dynamics`` import names directly, so
patching only the defining module would miss their calls).  Every call
records one span -- name, start, end, parent span, task -- and a work count
where the layer has one.  Spans stay in memory; per-layer metrics and
self-time shares are derived from them once the run ends.

Spans inside the solvers (setup versus stepping) need hooks in
``fanomode.dynamics`` itself and are not recorded here.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

import numpy as np


def _points(args: dict, result: Any) -> float:
    values = args.get("omega", args.get("epsilon"))
    return float(np.size(values))


def _steps(args: dict, result: Any) -> float:
    return float(len(result.times) - 1)


def _mode_steps(args: dict, result: Any) -> float:
    return float(args["res"].n_modes * (len(result.times) - 1))


_COUNTERS = {"points": _points, "steps": _steps, "mode_steps": _mode_steps}


# (module, function, counted quantity) for every wrapped public function.
# ``max_dev`` is filled in by the tracer, which needs the unwrapped analytic
# kernel for it.
TARGETS: tuple[tuple[str, str, str | None], ...] = (
    ("config", "load_config", None),
    ("spectral", "evaluate_J", "points"),
    ("spectral", "evaluate_reduced_J", "points"),
    ("spectral", "memory_kernel", None),
    ("spectral", "kernel_by_quadrature", "max_dev"),
    ("embedding", "embed_from_model", None),
    ("embedding", "is_lindblad", None),
    ("embedding", "kossakowski", None),
    ("dynamics", "solve_amplitudes", "steps"),
    ("dynamics", "solve_volterra", "steps"),
    ("dynamics", "solve_qme", "steps"),
    ("dynamics", "build_discretized", None),
    ("dynamics", "solve_discretized", "mode_steps"),
    ("dynamics", "decay_rate", None),
    ("fanodiag", "fano_lambda", None),
    ("fanodiag", "verify_lambda_identity", None),
    ("cli", "main", None),
)


@dataclass
class Span:
    id: int
    name: str  # "<module>.<function>"
    task: str
    parent: int | None
    start: float
    end: float = 0.0
    count: float = 0.0  # work count, or deviation for kernel_by_quadrature

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs span-recording wrappers into the loaded ``fanomode`` modules."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.task = ""
        self._stack: list[int] = []
        self._patched: list[tuple[Any, str, Any]] = []

    def install(self) -> None:
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "fanomode" or n.startswith("fanomode.")]
        analytic_kernel = sys.modules["fanomode.spectral"].memory_kernel
        for module_name, func_name, quantity in TARGETS:
            original = getattr(sys.modules[f"fanomode.{module_name}"], func_name)
            if quantity == "max_dev":
                count = functools.partial(_quadrature_deviation, analytic_kernel)
            else:
                count = _COUNTERS.get(quantity)
            wrapper = self._wrap(f"{module_name}.{func_name}", original, count)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _wrap(self, name: str, fn: Callable, count) -> Callable:
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(len(self.spans), name, self.task, parent, time.perf_counter())
            self.spans.append(span)
            self._stack.append(span.id)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if count is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.count = count(bound.arguments, result)
            return result

        return wrapper

    def dump(self) -> list[dict]:
        return [asdict(span) for span in self.spans]


def _quadrature_deviation(analytic_kernel, args: dict, result: Any) -> float:
    """|quadrature - analytic regular kernel| for tau > 0 (0 at tau = 0,
    where the one-sided delta part makes the two differ by definition)."""
    if args["tau"] <= 0.0:
        return 0.0
    exact = analytic_kernel(args["spec"], args["tau"]).regular
    return float(abs(result.value - exact))


def _busy(spans: list[Span], member: Callable[[Span], bool]) -> float:
    """Time covered by spans of a group, counting nested group spans once."""
    by_id = {span.id: span for span in spans}
    total = 0.0
    for span in spans:
        if not member(span):
            continue
        parent = span.parent
        while parent is not None and not member(by_id[parent]):
            parent = by_id[parent].parent
        if parent is None:
            total += span.duration
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the time its direct children cover."""
    own = {span.id: span.duration for span in spans}
    for span in spans:
        if span.parent is not None:
            own[span.parent] -= span.duration
    return own


def layer_metrics(spans: list[Span], batches: int) -> dict[str, float]:
    """Per-layer metrics, averaged per traced batch."""
    def named(name):
        return [s for s in spans if s.name == name]

    out: dict[str, float] = {}
    for module_name, func_name, quantity in TARGETS:
        name = f"{module_name}.{func_name}"
        group = named(name)
        out[f"{name}.calls"] = len(group) / batches
        out[f"{name}.busy_s"] = _busy(spans, lambda s, n=name: s.name == n) / batches
        if quantity == "max_dev":
            out[f"{name}.max_dev"] = max((s.count for s in group), default=0.0)
        elif quantity is not None:
            out[f"{name}.{quantity}"] = sum(s.count for s in group) / batches
    for module_name in ("embedding", "fanodiag"):
        member = lambda s, m=module_name: s.module == m  # noqa: E731
        out[f"{module_name}.busy_s"] = _busy(spans, member) / batches
    own = self_times(spans)
    out["cli.self_s"] = sum(own[s.id] for s in named("cli.main")) / batches
    return out


def layer_shares(spans: list[Span], wall: float) -> dict[str, float]:
    """Self time per layer as a share of the traced batches' wall time.

    Solver functions keep their own entry; other modules are summed.  What
    no span covers (the benchmark's calls into the program) is ``untraced``.
    """
    own = self_times(spans)
    shares: dict[str, float] = {}
    for span in spans:
        key = span.name if span.module == "dynamics" else span.module
        shares[key] = shares.get(key, 0.0) + own[span.id] / wall
    shares["untraced"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda item: -item[1]))
