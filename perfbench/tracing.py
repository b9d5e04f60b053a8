"""In-memory span tracing around the package's public functions.

A span records name, start, end, the index of its parent span and a
small dict of attributes. Spans stay in memory during the run and are
written out once it ends. Functions are wrapped where their caller looks
them up (a module or class attribute), so tracing changes no package
code; `Tracer.restore` puts every original back.
"""

from __future__ import annotations

import functools
import importlib
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index into the span list; -1 for a root
    attrs: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Site:
    """One traced layer: a span name and the places it is looked up from.

    Each target is "module:attr[.attr]". `describe(args, kwargs, result)`
    returns attributes for the span; it runs after the span has ended.
    """

    name: str
    targets: tuple[str, ...]
    describe: Callable[[tuple, dict, object], dict] | None = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object, bool]] = []

    def wrap(self, name: str, fn: Callable, describe=None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = Span(name, 0.0, parent=self._stack[-1] if self._stack else -1)
            self.spans.append(span)
            self._stack.append(index)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        return traced

    def install(self, sites: list[Site]) -> None:
        """Wrap every target that exists; a missing one is skipped, so its
        span simply reports no calls."""
        for site in sites:
            for target in site.targets:
                found = resolve(target)
                if found is None:
                    continue
                owner, attr = found
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original, attr in vars(owner)))
                setattr(owner, attr, self.wrap(site.name, original, site.describe))

    def restore(self) -> None:
        while self._patched:
            owner, attr, original, own = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def resolve(target: str) -> tuple[object, str] | None:
    """(owner, attribute) named by "module:attr[.attr]", or None if gone."""
    module_name, _, path = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ModuleNotFoundError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    return (owner, attr) if callable(getattr(owner, attr, None)) else None


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (the traced code is single-
    threaded), so the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def dump(spans: list[Span]) -> list[list]:
    return [[s.name, s.start, s.end, s.parent, s.attrs] for s in spans]


def load(rows: list[list]) -> list[Span]:
    return [Span(name, start, end, parent, attrs) for name, start, end, parent, attrs in rows]
