"""In-memory spans around calls into tscast's public functions.

A span is (id, name, start, end, parent id, work count). The recorder
wraps public functions from outside the package: every binding of the
original function object in the tscast modules' namespaces is replaced
by a timing wrapper, so calls the package makes internally (for example
``synth.evaluate_arm`` calling ``train_model``) are recorded too. Nothing
inside ``src/`` changes, and :meth:`Recorder.patch` restores the original
bindings on exit.
"""

from __future__ import annotations

import json
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

SIDE = "side"  # span name of one side piece of a workload's pass


@dataclass(slots=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    count: int

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class Recorder:
    """Single-threaded span store; spans stay in memory until :meth:`dump`."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, 0.0, 0.0, parent, 1)
        self.spans.append(span)
        self._stack.append(span.sid)
        return span

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        span = self._open(name)
        span.start = perf_counter()
        try:
            yield span
        finally:
            span.end = perf_counter()
            self._stack.pop()

    def _wrap(self, name: str, fn, count):
        def wrapper(*args, **kwargs):
            span = self._open(name)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if count is not None:
                span.count = count(args, result)
            return result

        return wrapper

    @contextmanager
    def patch(self, targets: dict):
        """Record spans around ``targets``: {"module.function": count or None}.

        ``count(args, result)`` gives the span's work count; None counts one
        call as one unit.
        """
        makers = {name: (lambda fn, name=name, count=count: self._wrap(name, fn, count)) for name, count in targets.items()}
        with rebound(makers):
            yield self

    def self_times(self, spans: list[Span]) -> dict:
        """Calls, total and self milliseconds per span name.

        Self time is a span's duration minus the durations of its direct
        children, which never overlap because calls are synchronous.
        """
        child_ms: dict[int, float] = {}
        for s in spans:
            if s.parent is not None:
                child_ms[s.parent] = child_ms.get(s.parent, 0.0) + s.ms
        table: dict[str, dict] = {}
        for s in spans:
            row = table.setdefault(s.name, {"calls": 0, "total_ms": 0.0, "self_ms": 0.0})
            row["calls"] += 1
            row["total_ms"] += s.ms
            row["self_ms"] += s.ms - child_ms.get(s.sid, 0.0)
        return {k: {f: round(v, 3) if isinstance(v, float) else v for f, v in row.items()} for k, row in table.items()}

    def dump(self, path) -> None:
        rows = [[s.sid, s.name, s.start, s.end, s.parent, s.count] for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "name", "start", "end", "parent", "count"], "spans": rows}, fh)
            fh.write("\n")


@contextmanager
def rebound(targets: dict):
    """Rebind tscast functions: {"module.function": make}.

    Every binding of the function object that ``module.function`` names now,
    in every tscast module's namespace, is replaced by ``make(function)``
    and restored on exit. Rebinding a function that is already rebound
    wraps the wrapper.
    """
    modules = [m for n, m in sorted(sys.modules.items()) if n == "tscast" or n.startswith("tscast.")]
    undo = []
    try:
        for qualname, make in targets.items():
            module_name, fn_name = qualname.rsplit(".", 1)
            original = getattr(sys.modules[f"tscast.{module_name}"], fn_name)
            replacement = make(original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)
                        undo.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(undo):
            setattr(module, attr, original)


def _noop():
    return None


def wrapper_cost_s(n: int = 20000) -> float:
    """Seconds a span wrapper adds to one call, measured on a no-op."""
    wrapped = Recorder()._wrap("noop", _noop, None)
    t0 = perf_counter()
    for _ in range(n):
        _noop()
    t1 = perf_counter()
    for _ in range(n):
        wrapped()
    return max(0.0, (perf_counter() - t1) - (t1 - t0)) / n
