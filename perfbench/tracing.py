"""In-memory span tracer for the benchmark's traced run.

The tracer replaces public functions at module attributes with wrappers that
record one span per call: name, start, end, parent span and op id.  Spans stay
in memory until the run ends.  A span's self time is its duration minus the
part of its interval that its child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Iterator

#: observe(stats, args, result) runs after a traced call returns, outside its span.
Observer = Callable[[dict, tuple, Any], None]


class Tracer:
    """Spans of one traced pass plus the sizes observers record along them."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        # Each span is [name, start, end, parent index or None, op id].
        self.spans: list[list] = []
        self.stats: dict[str, float] = {}
        self.op: str | None = None
        self._open: list[int] = []

    def wrap(self, name: str, fn: Callable, observe: Observer | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = self.clock()
                self._open.pop()
            if observe is not None:
                observe(self.stats, args, result)
            return result

        return traced

    def totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, summed self time in seconds)."""
        out: dict[str, tuple[int, float]] = {}
        for span, own in zip(self.spans, self_times(self.spans)):
            calls, secs = out.get(span[0], (0, 0.0))
            out[span[0]] = (calls + 1, secs + own)
        return out


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the union of its children's intervals."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for name, start, end, parent, op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = []
    for (name, start, end, parent, op), kids in zip(spans, children):
        covered = 0.0
        reach = start
        for lo, hi in sorted(kids):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


def public_functions(modules: list[ModuleType], package: str) -> list[tuple[ModuleType, str, str]]:
    """(module, attribute, span name) for every public function of `package`
    reachable as an attribute of one of `modules`, including imported names.

    The span name is the defining module's last component plus the function
    name, so `engine.integrate` and `closedforms.integrate` both record
    `exactnum.integrate`.
    """
    found = []
    for module in modules:
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if not obj.__module__.startswith(package + "."):
                continue
            found.append((module, attr, f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"))
    return found


@contextmanager
def installed(
    tracer: Tracer,
    targets: list[tuple[ModuleType, str, str]],
    observers: dict[str, Observer],
) -> Iterator[None]:
    """Swap every target for a traced wrapper; restore the originals on exit."""
    originals = [(module, attr, getattr(module, attr)) for module, attr, _ in targets]
    try:
        for (module, attr, name), (_, _, fn) in zip(targets, originals):
            setattr(module, attr, tracer.wrap(name, fn, observers.get(name)))
        yield
    finally:
        for module, attr, fn in originals:
            setattr(module, attr, fn)


def write_spans(path: Path, tracers: list[Tracer]) -> None:
    """Write every pass's spans as one JSON document."""
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"fields": ["name", "start", "end", "parent", "op"], "passes": [t.spans for t in tracers]}
    path.write_text(json.dumps(doc))
