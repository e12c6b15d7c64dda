"""Unit tests of the span recorder.  Run: python3 -m pytest perfbench/test_spans.py"""

import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from spans import Span, Spans, self_times, totals, union_length


def test_union_length_merges_overlaps_and_skips_empty():
    assert union_length([(8, 10), (1, 3), (2, 5), (4, 4), (6, 5)]) == 6
    assert union_length([]) == 0


def test_self_time_subtracts_union_of_clipped_children():
    spans = [
        Span("outer", None, 1, 0.0, 10.0),
        Span("child", 0, 1, 1.0, 3.0),
        Span("child", 0, 2, 2.0, 5.0),  # overlaps the first: another thread
        Span("child", 0, 2, 8.0, 12.0),  # ends after its parent: clipped
        Span("grandchild", 1, 1, 1.5, 2.0),  # covered by span 1, not by 0
    ]
    assert self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])
    tot = totals(spans)
    assert tot["child"] == pytest.approx({"s": 9.0, "self_s": 8.5, "calls": 3})
    assert tot["outer"]["self_s"] == pytest.approx(4.0)


def test_nested_calls_link_to_caller():
    ticks = iter(range(100))
    rec = Spans(clock=lambda: float(next(ticks)))
    inner = rec.wrap("inner", lambda x: x + 1)
    outer = rec.wrap("outer", lambda x: inner(inner(x)), attrs=lambda x: {"x": x})
    assert outer(1) == 3
    names = [(s.name, s.parent, s.start, s.end) for s in rec.records]
    assert names == [("outer", None, 0, 5), ("inner", 0, 1, 2), ("inner", 0, 3, 4)]
    assert rec.records[0].attrs == {"x": 1}
    assert self_times(rec.records) == [3.0, 1.0, 1.0]


def test_worker_thread_spans_adopt_main_span_under_contention():
    rec = Spans()
    calls = 2000
    step = rec.wrap("step", lambda i: i)

    def fan_out():
        with ThreadPoolExecutor(max_workers=8) as pool:
            return sum(pool.map(step, range(calls), timeout=60))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert rec.wrap("outer", fan_out)() == calls * (calls - 1) // 2
    finally:
        sys.setswitchinterval(old)
    outer, *steps = rec.records
    assert outer.name == "outer" and outer.parent is None
    assert len(steps) == calls
    assert all(s.parent == 0 and s.end is not None for s in steps)
    assert all(not stack for stack in rec._stacks.values())
    assert 0.0 <= self_times(rec.records)[0] <= outer.end - outer.start
