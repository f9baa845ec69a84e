"""In-memory spans recorded by shims the benchmark puts around layer functions.

The program under test is not instrumented.  In a traced run the benchmark
replaces selected public functions and methods of ``repro`` with wrappers
that record one span per call (name, start, end, parent span, thread) and
restores the originals afterwards.  Spans stay in memory until the run
ends; :func:`layer_totals` then turns them into per-layer call counts,
inclusive time and self time (a span's duration minus the part of it that
its child spans cover).
"""

from __future__ import annotations

import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    start: float
    end: float
    thread: int
    #: Numbers a shim extracted from the call (e.g. tokens generated).
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects spans from any thread; parents come from a per-thread stack."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn: Callable, name: str, attrs_of: Callable | None = None):
        """``fn`` wrapped to record a span per call.

        ``attrs_of(args, kwargs, result)`` may return a dict of numbers to
        attach to the span; it runs after the clock has stopped.
        """
        recorder = self

        def shim(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            sid = next(recorder._ids)
            stack.append(sid)
            start = recorder.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = recorder.clock()
                stack.pop()
            span = Span(sid, parent, name, start, end, threading.get_ident())
            if attrs_of is not None:
                span.attrs = attrs_of(args, kwargs, result)
            recorder.spans.append(span)
            return result

        shim.__wrapped__ = fn
        shim.__name__ = getattr(fn, "__name__", name)
        return shim


def write_spans(spans: list[Span], path) -> None:
    """Write spans as one JSON object per line."""
    with open(path, "w") as fh:
        for s in spans:
            fh.write(json.dumps({
                "id": s.sid, "parent": s.parent, "name": s.name,
                "start": s.start, "end": s.end, "thread": s.thread,
                "attrs": s.attrs,
            }) + "\n")


def covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.sid: s.duration - covered(children.get(s.sid, []), s.start, s.end)
        for s in spans
    }


@dataclass
class LayerTotal:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def layer_totals(spans: list[Span]) -> dict[str, LayerTotal]:
    """Per span name: call count, inclusive seconds and self seconds."""
    own = self_times(spans)
    out: dict[str, LayerTotal] = {}
    for s in spans:
        t = out.setdefault(s.name, LayerTotal())
        t.calls += 1
        t.total_s += s.duration
        t.self_s += own[s.sid]
    return out


class Shims:
    """Install span shims on classes and module functions; undo on exit.

    A method target is ``(cls, "method")``.  A function target is the
    function object itself: every ``repro`` module global bound to it is
    replaced, so callers that imported it by name see the shim too.
    """

    def __init__(self, recorder: SpanRecorder):
        self.recorder = recorder
        self._undo: list[tuple[object, str, object]] = []

    def method(self, cls, attr: str, name: str, attrs_of=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self.recorder.wrap(original, name, attrs_of))
        self._undo.append((cls, attr, original))

    def function(self, fn, name: str, attrs_of=None) -> None:
        shim = self.recorder.wrap(fn, name, attrs_of)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, shim)
                    self._undo.append((mod, attr, fn))

    def __enter__(self) -> "Shims":
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
