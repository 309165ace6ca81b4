"""Span tracing at corrlink's module boundaries, without touching its source.

A :class:`Tracer` replaces each traced function in the module namespace where
its callers look it up (``estimators.draw_first_crossing``,
``harness.threshold_trials``, ``analysis.exact_threshold_variance`` reached as
an attribute of the ``analysis`` module, ...) with a wrapper that records a
span, and puts the originals back on :meth:`Tracer.uninstall`.

Traced functions are the public functions of the six layer modules, plus any
private function one layer module imports from another (``_qinv_unchecked``,
``_open_uniform``). Private functions used only inside their own module, the
helper modules ``linalg``, ``cli`` and ``errors``, and methods are not
traced; their time counts toward the span that calls them.
"""

from __future__ import annotations

import itertools
import threading
import time
import types
from dataclasses import dataclass
from typing import Optional

LAYERS = ("harness", "estimators", "sources", "protocol", "analysis", "statmath")


@dataclass
class Span:
    """One traced call: ``name`` is ``<layer>.<function>``; times are perf_counter_ns."""

    name: str
    layer: str
    parent: Optional[int]
    start: int
    end: int = -1


class Tracer:
    """Installs span-recording wrappers into the layer modules' namespaces.

    Spans of one traced call share the root span, the first span opened while
    no other is open. A span opened on a worker thread with no open span of
    its own takes the root as parent, so chunk work submitted by
    ``run_sweep`` nests under ``harness.run_sweep``.
    """

    def __init__(self, package):
        self._modules = {layer: getattr(package, layer) for layer in LAYERS}
        self._by_module_name = {m.__name__: layer for layer, m in self._modules.items()}
        self._saved: list[tuple[object, str, object]] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self.spans: dict[int, Span] = {}
        self.generators: list = []
        self.root: Optional[int] = None

    def reset(self) -> None:
        """Forget recorded spans and generators; wrappers stay installed."""
        self.spans = {}
        self.generators = []
        self.root = None

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for layer, module in self._modules.items():
            for attr, obj in list(vars(module).items()):
                if not isinstance(obj, types.FunctionType):
                    continue
                owner = self._by_module_name.get(obj.__module__)
                if owner is None:
                    continue
                if owner == layer and attr.startswith("_"):
                    continue
                self._saved.append((module, attr, obj))
                setattr(module, attr, self._wrap(obj, owner))

    def uninstall(self) -> None:
        for module, attr, obj in reversed(self._saved):
            setattr(module, attr, obj)
        self._saved = []

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        keep_result = name == "sources.substream"
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else tracer.root
            if parent is None:
                tracer.root = sid
            span = Span(name, layer, parent, time.perf_counter_ns())
            tracer.spans[sid] = span
            stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                if sid == tracer.root:
                    tracer.root = None
            if keep_result:
                tracer.generators.append(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Total length of the union of half-open intervals."""
    total = 0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: dict[int, Span]) -> dict[int, int]:
    """Span duration minus the part of it that child spans cover, in ns."""
    children: dict[int, list[tuple[int, int]]] = {}
    for span in spans.values():
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        sid: (span.end - span.start) - _covered(children.get(sid, []))
        for sid, span in spans.items()
    }


def root_span(spans: dict[int, Span]) -> Span:
    return next(span for span in spans.values() if span.parent is None)


def check_spans(spans: dict[int, Span]) -> list[str]:
    """Structural problems in a finished trace: open spans, bad nesting, negative self time."""
    problems = []
    roots = [sid for sid, s in spans.items() if s.parent is None]
    if len(roots) != 1:
        problems.append(f"expected one root span, found {len(roots)}")
    for sid, span in spans.items():
        if span.end < span.start:
            problems.append(f"span {sid} {span.name} never closed")
            continue
        if span.parent is None:
            continue
        parent = spans.get(span.parent)
        if parent is None:
            problems.append(f"span {sid} {span.name} has unknown parent {span.parent}")
        elif span.start < parent.start or span.end > parent.end:
            problems.append(f"span {sid} {span.name} escapes parent {parent.name}")
    for sid, value in self_times(spans).items():
        if value < 0:
            problems.append(f"span {sid} {spans[sid].name} has negative self time")
    return problems
