"""In-memory spans around calls into the program's public functions.

The tracer wraps a function where callers look it up (a module global, a
class attribute or a dict entry), records one span per call, and puts the
original back when the ``installed`` block ends. Nothing in the program is
edited; a span covers exactly one call made through the wrapped name.

A span is ``[name, start, end, parent, call, count]``: ``parent`` is the
index of the enclosing span (-1 at the top), ``call`` the identifier of
the benchmark call that caused it, and ``count`` the work the call did
(rows, samples, bytes) as the target's counter reads it from the
arguments and the result.
"""

from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Any, Callable

NAME, START, END, PARENT, CALL, COUNT = range(6)


class Tracer:
    """Collects spans from every function it wraps, single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.call = 0
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.call, 0]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, out)
            return out

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start an empty list."""
        spans, self.spans = self.spans, []
        return spans


@dataclass(frozen=True)
class Target:
    """One name to wrap: ``attr`` of ``owner`` (a module, class or dict).

    ``must_fire`` names the workloads whose traced run fails when the
    wrapped name is never called, so that a rename or an inlined call
    shows as a failure rather than as a silent zero.
    """

    span: str
    owner: Any
    attr: str
    count: Callable | None = None
    must_fire: frozenset[str] = field(default_factory=frozenset)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


@contextlib.contextmanager
def installed(tracer: Tracer, targets):
    """Wrap every target for the duration of the block, then restore it.

    A missing attribute raises, which fails the traced run.
    """
    saved = []
    try:
        for t in targets:
            original = _get(t.owner, t.attr)
            saved.append((t.owner, t.attr, original))
            _set(t.owner, t.attr, tracer.wrap(t.span, original, t.count))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            _set(owner, attr, original)


@dataclass
class SpanTotals:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    count: int = 0


def summarize(spans: list[list]) -> dict[str, SpanTotals]:
    """Per span name: calls, inclusive time, self time and summed counts.

    Self time is a span's duration minus the durations of its direct
    children; calls are sequential, so the children never overlap.
    """
    child_s = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] >= 0:
            child_s[span[PARENT]] += span[END] - span[START]
    totals: dict[str, SpanTotals] = {}
    for span, inner in zip(spans, child_s):
        t = totals.setdefault(span[NAME], SpanTotals())
        duration = span[END] - span[START]
        t.calls += 1
        t.total_s += duration
        t.self_s += duration - inner
        t.count += span[COUNT]
    return totals
