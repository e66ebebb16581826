"""In-memory spans and the summary statistics the benchmark reports.

Spans are recorded by the benchmark around its own calls into qmbox; nothing
inside the package is instrumented.  They stay in memory until the run ends.
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    request: int | None


class NullTracer:
    """Tracing off: a call goes straight through, nothing is recorded."""

    enabled = False

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @contextmanager
    def request(self, index):
        yield

    def note(self, key, value, combine=max):
        pass


@dataclass
class Tracer:
    """Tracing on: every ``call`` becomes a span under the current request."""

    spans: list[Span] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    _stack: list[int] = field(default_factory=list)
    _request: int | None = None

    enabled = True

    @contextmanager
    def span(self, name):
        span_id = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter(), math.nan, span_id, parent, self._request)
        self.spans.append(span)
        self._stack.append(span_id)
        try:
            yield span
        finally:
            self._stack.pop()
            span.end = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextmanager
    def request(self, index):
        self._request = index
        try:
            with self.span("request"):
                yield
        finally:
            self._request = None

    def note(self, key, value, combine=max):
        """Keep a computed per-run quantity, folded with ``combine``."""
        self.notes[key] = value if key not in self.notes else combine(self.notes[key], value)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self seconds, call count).

        Self time is a span's duration minus the part of it that its direct
        children cover.
        """
        children: dict[int, list[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                children.setdefault(span.parent, []).append(span)
        totals: dict[str, tuple[float, int]] = {}
        for span in self.spans:
            covered = _union_length(
                [(max(c.start, span.start), min(c.end, span.end))
                 for c in children.get(span.span_id, ())])
            seconds, calls = totals.get(span.name, (0.0, 0))
            totals[span.name] = (seconds + (span.end - span.start) - covered, calls + 1)
        return totals


def _union_length(intervals) -> float:
    length, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end <= reach:
            continue
        length += end - max(start, reach)
        reach = end
    return length


def tail_latency(samples) -> tuple[float, float | None]:
    """(value, percentile) of the highest percentile that still has at least
    ten samples beyond it: the eleventh-largest sample, at percentile
    100 (n - 10) / n.  With ten samples or fewer no percentile qualifies; the
    maximum is returned with percentile None so the caller can say so."""
    ordered = sorted(samples)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n <= 10:
        return ordered[-1], None
    return ordered[n - 11], 100.0 * (n - 10) / n


def low_decile(samples) -> float:
    """The 10th percentile by nearest rank; the only sample when there is one.

    Other load on a shared machine only ever slows a round down, so the
    fast end of the round times is the steady estimate of what the program
    itself costs."""
    ordered = sorted(samples)
    return ordered[int(0.1 * len(ordered))]


def accuracy_digits(rel_errors, floor=1e-16) -> float:
    """min over levels of -log10(relative error), an error below double
    precision's resolution counting as ``floor``."""
    worst = max(rel_errors)
    return -math.log10(max(worst, floor))
