"""Nested wall-clock spans recorded around calls into the program.

A span is one call of a wrapped function: its name, start and end on the
monotonic clock, the thread that ran it and the span that caused it.  Each
thread keeps its own stack of open spans, so calls made from worker threads
nest correctly.  A span opened on a thread with no open span (a pool worker)
takes the innermost open span of the main thread as its parent, because the
program starts its worker pools from the main thread.

Self time is a span's duration minus the part of its interval that its
children cover.  Children on parallel threads can overlap; the covered part
is the length of the union of their intervals, so self time is the wall time
during which no child was running.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    parent: int | None
    thread: int
    start: float
    end: float | None = None
    attrs: dict | None = None


class Spans:
    """Thread-safe recorder; wrap() returns a timed version of a function."""

    def __init__(self, clock=time.monotonic):
        self._clock = clock
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self.records: list[Span] = []

    def wrap(self, name: str, fn, attrs=None):
        """fn timed as span `name`; attrs(*args, **kwargs) -> dict is stored
        with the span."""

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            sid = self.open(name, attrs(*args, **kwargs) if attrs else None)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(sid)

        return timed

    def open(self, name: str, attrs: dict | None = None) -> int:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            sid = len(self.records)
            self.records.append(Span(name, parent, tid, self._clock(), attrs=attrs))
            stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        end = self._clock()
        with self._lock:
            self._stacks[threading.get_ident()].pop()
            self.records[sid].end = end

    def dump(self) -> list[dict]:
        with self._lock:
            return [asdict(s) for s in self.records]


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the union of its children's intervals,
    clipped to the span."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    out = []
    for i, s in enumerate(spans):
        covered = union_length(
            (max(c.start, s.start), min(c.end, s.end)) for c in children[i]
        )
        out.append(s.end - s.start - covered)
    return out


def totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total seconds in calls, self seconds and call count."""
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"s": 0.0, "self_s": 0.0, "calls": 0}
    )
    for s, own in zip(spans, self_times(spans)):
        row = out[s.name]
        row["s"] += s.end - s.start
        row["self_s"] += own
        row["calls"] += 1
    return dict(out)
