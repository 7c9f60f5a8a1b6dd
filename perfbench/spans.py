"""In-memory spans recorded around the program's public entry points.

A traced run wraps each layer's entry points from this file (the program
itself is not modified), records one span per call — name, start, end,
parent span and request id — and derives per-layer *self time*: a span's
duration minus the part of its interval its child spans cover.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional


class SpanRecord(NamedTuple):
    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    request_id: Optional[int]


class SpanRecorder:
    """Collects spans per thread; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[SpanRecord] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- request ids ---------------------------------------------------------

    def set_request(self, request_id: Optional[int]) -> None:
        """Tag spans opened on this thread from now on with ``request_id``."""
        self._local.request_id = request_id

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, fn: Callable, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``."""
        stack = self._stack()
        span_id = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            # list.append is atomic under the GIL; spans from other
            # threads interleave but never tear
            self.spans.append(SpanRecord(
                span_id, name, start, end, parent,
                getattr(self._local, "request_id", None),
            ))

    def traced(self, name: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return recorder.call(name, fn, *args, **kwargs)

        return wrapper

    # -- patching the program's entry points ----------------------------------

    def patch(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a function, method or a property returning
        a function) with a traced one."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, property):
            traced = {}

            def getter(obj, _fget=original.fget):
                fn = _fget(obj)
                if fn not in traced:
                    traced[fn] = self.traced(name, fn)
                return traced[fn]

            replacement: Any = property(getter)
        else:
            replacement = self.traced(name, original)
        self.replace(owner, attr, replacement)

    def replace(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` until :meth:`unpatch` restores the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- export --------------------------------------------------------------

    def write(self, path: Path) -> None:
        """Write every span as one JSON object per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")


def self_times(spans: list[SpanRecord]) -> dict[int, float]:
    """Self seconds of every span: its duration minus the union of its
    children's intervals (clipped to the span itself)."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    result = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for start, end in sorted(children.get(s.span_id, ())):
            start, end = max(start, cursor), min(end, s.end)
            if end > start:
                covered += end - start
                cursor = end
        result[s.span_id] = (s.end - s.start) - covered
    return result


def self_time_by_name(spans: list[SpanRecord]) -> dict[str, float]:
    """Total self seconds per span name."""
    own = self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for s in spans:
        totals[s.name] += own[s.span_id]
    return dict(totals)


def durations_by_name(spans: list[SpanRecord]) -> dict[str, list[float]]:
    """Inclusive durations per span name."""
    out: dict[str, list[float]] = defaultdict(list)
    for s in spans:
        out[s.name].append(s.end - s.start)
    return dict(out)
