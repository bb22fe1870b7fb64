"""In-memory spans for the benchmark's traced run.

A span records a name, its start and end (perf_counter seconds), the span that
was open when it started, and a run id shared by every span under one root.
Spans stay in memory and are written out by the caller when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int | None
    run: int
    name: str
    start: float
    end: float

    @property
    def seconds(self) -> float:
        return self.end - self.start


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    def span(self, name: str):
        return nullcontext()


class Tracer:
    """Records nested spans from one thread, plus call counters."""

    def __init__(self):
        self.spans: list[Span] = []
        self.calls: Counter = Counter()
        self.call_seconds: defaultdict = defaultdict(float)
        self._stack: list[tuple[int, int]] = []  # (span id, run id) of open spans
        self._next_id = 0
        self._next_run = 0

    @contextmanager
    def span(self, name: str):
        if self._stack:
            parent, run = self._stack[-1]
        else:
            parent, run = None, self._next_run
            self._next_run += 1
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, run))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(sid, parent, run, name, start, end))

    @contextmanager
    def counting(self, owner, attr: str, name: str):
        """Count and time every call of owner.attr while the block runs.

        Too many calls for one span each (the sphere solver makes about
        100,000 per replication), so only totals are kept.
        """
        original = getattr(owner, attr)

        def counted(*args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                self.calls[name] += 1
                self.call_seconds[name] += time.perf_counter() - start

        setattr(owner, attr, counted)
        try:
            yield
        finally:
            setattr(owner, attr, original)

    def to_dicts(self) -> list[dict]:
        return [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)]


def children(spans: list[Span]) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            out[s.parent].append(s)
    return out


def self_seconds(span: Span, kids: list[Span]) -> float:
    """Span duration minus the part of its interval that child spans cover."""
    covered = 0.0
    cursor = span.start
    for kid in sorted(kids, key=lambda k: k.start):
        lo, hi = max(kid.start, cursor), min(kid.end, span.end)
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return span.seconds - covered


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    kids = children(spans)
    out: dict[str, float] = defaultdict(float)
    for s in spans:
        out[s.name] += self_seconds(s, kids.get(s.id, []))
    return dict(out)
