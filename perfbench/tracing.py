"""The boundary between the benchmark and the library: timing, spans, counts.

Every call into ``splinequad`` goes through ``probe.call(name, fn, *args)``.
Untraced, that is a plain call.  Traced, it records a span (name, start,
end, parent span, operation id) kept in memory and written out at the end;
a span's self time is its duration minus the part its child spans cover.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, NamedTuple, Optional


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]
    op: int


@dataclass
class OpOutcome:
    """One timed operation: its latency, result, and the exception it raised."""

    latency: float
    value: object
    error: Optional[Exception]


class Probe:
    """Untraced boundary: calls go straight through."""

    traced = False
    integrand_calls = None  # one-element list of integrand calls, when traced

    @staticmethod
    def call(name: str, fn: Callable, *args):
        return fn(*args)

    def op(self, body: Callable[[], object]) -> OpOutcome:
        """Time one operation; any exception it raises becomes part of the outcome."""
        start = perf_counter()
        try:
            value, error = body(), None
        except Exception as exc:  # every failure is counted, none ends the run
            value, error = None, exc
        return OpOutcome(perf_counter() - start, value, error)


class TracingProbe(Probe):
    """Traced boundary: one span per call, one per operation, integrand calls counted."""

    traced = True

    def __init__(self) -> None:
        self.counts: Counter = Counter()  # work done, by "<layer>.<count>"
        self.spans: list[Optional[Span]] = []
        self._open: list[int] = []
        self._ops = 0
        self.op_id = -1  # -1 for spans recorded outside an operation
        self.integrand_calls = [0]

    def _begin(self) -> int:
        self.spans.append(None)
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _end(self, idx: int, name: str, start: float) -> None:
        end = perf_counter()
        self._open.pop()
        parent = self._open[-1] if self._open else None
        self.spans[idx] = Span(name, start, end, parent, self.op_id)

    def call(self, name: str, fn: Callable, *args):
        idx = self._begin()
        start = perf_counter()
        try:
            return fn(*args)
        finally:
            self._end(idx, name, start)

    def op(self, body: Callable[[], object]) -> OpOutcome:
        self.op_id = self._ops
        self._ops += 1
        idx = self._begin()
        start = perf_counter()
        try:
            value, error = body(), None
        except Exception as exc:
            value, error = None, exc
        self._end(idx, "op", start)
        self.op_id = -1
        span = self.spans[idx]
        return OpOutcome(span.end - span.start, value, error)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the union of its children's intervals
    clipped to it."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        lo_open = hi_open = None
        for lo, hi in sorted(children.get(i, ())):
            lo, hi = max(lo, s.start), min(hi, s.end)
            if hi <= lo:
                continue
            if hi_open is None or lo > hi_open:
                if hi_open is not None:
                    covered += hi_open - lo_open
                lo_open, hi_open = lo, hi
            else:
                hi_open = max(hi_open, hi)
        if hi_open is not None:
            covered += hi_open - lo_open
        out.append((s.end - s.start) - covered)
    return out


def write_spans(path, spans: list[Span]) -> None:
    """Spans as CSV, times in nanoseconds from the first span's start."""
    t0 = spans[0].start if spans else 0.0
    with open(path, "w") as fh:
        fh.write("id,name,start_ns,end_ns,parent,op\n")
        for i, s in enumerate(spans):
            parent = "" if s.parent is None else s.parent
            fh.write(
                f"{i},{s.name},{round((s.start - t0) * 1e9)},"
                f"{round((s.end - t0) * 1e9)},{parent},{s.op}\n"
            )
