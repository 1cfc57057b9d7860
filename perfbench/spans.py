"""Spans recorded from outside the program, around its public functions.

A wrapper is installed in the module namespace where the caller looks
the function up (``speechrig.cli.load_model``, not only
``speechrig.network.load_model``), so the program's files stay
untouched. Spans live in memory until the run ends.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index into Tracer.spans
    request: int
    failed: bool = False
    attrs: dict = field(default_factory=dict)


class Tracer:
    """Records spans only while a request is open, so checks stay untraced."""

    def __init__(self):
        self.spans: list[Span] = []
        self.epochs: list[float] = []  # training epoch durations, from progress callbacks
        self.request: int | None = None
        self._stack: list[int] = []
        self._installed: list[tuple[object, str, object]] = []

    def call(self, name, fn, args, kwargs, observe=None):
        """Run ``fn`` inside a span; ``observe(span, args, kwargs, result)`` adds counters."""
        if self.request is None:
            return fn(*args, **kwargs)
        span = Span(name, time.perf_counter(), 0.0,
                    self._stack[-1] if self._stack else None, self.request)
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if observe is not None and not span.failed:
                observe(span, args, kwargs, result)

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, observe)
        return traced

    def install(self, module_name: str, attr: str, span_name: str, observe=None,
                factory=None) -> None:
        """Replace ``module.attr`` (``attr`` may be ``Class.method``) by a traced wrapper."""
        owner = importlib.import_module(module_name)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, leaf)
        wrapped = factory(self, original) if factory else self.wrap(span_name, original, observe)
        setattr(owner, leaf, wrapped)
        self._installed.append((owner, leaf, original))

    def uninstall(self) -> None:
        for owner, leaf, original in reversed(self._installed):
            setattr(owner, leaf, original)
        self._installed.clear()


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((s.end - s.start) - covered)
    return out
