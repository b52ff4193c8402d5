"""In-memory spans around calls into the package, installed from outside it.

A wrapper replaces a public attribute on the module (or class) that makes
the call, records one span per call, and is removed again when the traced
phase ends. Spans form a tree through their parent index, so a layer's
self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import math
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Callable


@dataclass
class Span:
    name: str
    site: str
    start: float
    end: float
    parent: int


@dataclass(frozen=True)
class Target:
    """One attribute to wrap: ``owner`` is "module" or "module:Class"."""

    owner: str
    attr: str
    span: str
    observe: Callable | None = None


class Tracer:
    """Collects spans and named counters for one traced phase."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name: str, site: str, observe=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = Span(name, site, perf_counter(), math.nan, parent)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                self._stack.pop()
            if observe is not None:
                observe(self, result, args)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its direct children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, reach, span.start), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.end - span.start - covered)
    return out


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    obj = importlib.import_module(module_name)
    return getattr(obj, class_name) if class_name else obj


@contextmanager
def installed(tracer: Tracer, targets: list[Target]):
    """Wrap every target that exists; yield the names that do not.

    Class attributes are looked up in the class's own namespace so that
    classmethods keep their descriptor. Every replaced attribute is put
    back when the block exits, also on error.
    """
    replaced = []
    missing = []
    try:
        for t in targets:
            try:
                owner = _resolve(t.owner)
            except (ImportError, AttributeError):
                missing.append(f"{t.owner}.{t.attr}")
                continue
            is_class = isinstance(owner, type)
            original = vars(owner).get(t.attr) if is_class else getattr(owner, t.attr, None)
            if original is None:
                missing.append(f"{t.owner}.{t.attr}")
                continue
            if isinstance(original, classmethod):
                wrapped = classmethod(
                    tracer.wrap(original.__func__, t.span, t.owner, t.observe)
                )
            else:
                wrapped = tracer.wrap(original, t.span, t.owner, t.observe)
            setattr(owner, t.attr, wrapped)
            replaced.append((owner, t.attr, original))
        yield missing
    finally:
        for owner, attr, original in reversed(replaced):
            setattr(owner, attr, original)
