"""Span self-time arithmetic and the shims that record spans."""

import itertools

import pytest

from spans import Shims, Span, SpanRecorder, covered, layer_totals, self_times


def test_covered_merges_overlaps_and_clips():
    assert covered([(1, 3), (2, 5), (8, 12)], 0, 10) == pytest.approx(6)
    assert covered([], 0, 10) == 0
    assert covered([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_only_direct_children():
    spans = [
        Span(1, None, "root", 0.0, 10.0, 1),
        Span(2, 1, "child", 1.0, 4.0, 1),
        Span(3, 2, "grandchild", 2.0, 3.0, 1),
        Span(4, 1, "child", 6.0, 9.0, 1),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10 - 3 - 3)
    assert own[2] == pytest.approx(3 - 1)
    assert own[3] == pytest.approx(1)
    totals = layer_totals(spans)
    assert totals["child"].calls == 2
    assert totals["child"].total_s == pytest.approx(6)
    assert totals["child"].self_s == pytest.approx(5)


def test_overlapping_children_are_not_double_counted():
    # Children from two threads may overlap; their union is what the
    # parent did not spend itself.
    spans = [
        Span(1, None, "root", 0.0, 10.0, 1),
        Span(2, 1, "a", 1.0, 6.0, 2),
        Span(3, 1, "b", 4.0, 8.0, 3),
    ]
    assert self_times(spans)[1] == pytest.approx(3)


class Worker:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 41


def test_shims_record_nesting_and_restore_originals():
    ticks = itertools.count()
    recorder = SpanRecorder(clock=lambda: float(next(ticks)))
    original_outer = Worker.__dict__["outer"]
    with Shims(recorder) as shims:
        shims.method(Worker, "outer", "outer")
        shims.method(Worker, "inner", "inner", lambda a, k, r: {"value": r})
        assert Worker().outer() == 42
    assert Worker.__dict__["outer"] is original_outer
    inner, outer = recorder.spans
    assert (outer.name, outer.parent) == ("outer", None)
    assert (inner.name, inner.parent) == ("inner", outer.sid)
    assert inner.attrs == {"value": 41}
    assert self_times(recorder.spans)[outer.sid] == pytest.approx(
        outer.duration - inner.duration
    )
