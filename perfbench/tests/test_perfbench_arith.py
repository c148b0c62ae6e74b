"""The benchmark's own arithmetic: self time over nested spans, the
ten-samples-beyond tail rule, percentiles and failed_frac.

Run with ``python3 -m pytest perfbench/tests``.
"""

import statistics

import pytest

from layers import Patches
from spans import NO_PARENT, Tracer, self_times, summarize
from stats import (failed_frac, percentile, samples_beyond, samples_needed,
                   tail_percentile)


def test_self_time_subtracts_direct_children_only():
    # a [0,100] > b [10,40] > c [20,30];  a > d [50,90]
    parents = [NO_PARENT, 0, 1, 0]
    starts = [0, 10, 20, 50]
    ends = [100, 40, 30, 90]
    assert self_times(parents, starts, ends) == [30, 20, 10, 40]


def test_self_times_sum_to_top_level_wall():
    parents = [NO_PARENT, 0, 1, 0, NO_PARENT, 4]
    starts = [0, 10, 20, 50, 200, 205]
    ends = [100, 40, 30, 90, 260, 255]
    summary = summarize(["a", "b", "c", "d", "e", "f"],
                        [0, 1, 2, 3, 4, 5], [0] * 6, parents, starts,
                        ends)
    assert summary.top_ns == 160
    assert sum(summary.self_ns.values()) == summary.top_ns


def test_total_counts_a_name_nested_in_itself_once():
    # x [0,100] > y [10,90] > x [20,60]
    summary = summarize(["x", "y"], [0, 1, 0], [0, 0, 0],
                        [NO_PARENT, 0, 1], [0, 10, 20], [100, 90, 60])
    assert summary.total_ns["x"] == 100
    assert summary.self_ns["x"] == 20 + 40
    assert summary.self_ns["y"] == 40
    assert summary.calls["x"] == 2


def test_tracer_records_nesting_sessions_and_raising_calls():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))

    def inner():
        return 1

    def failing():
        raise KeyError("boom")

    inner = tracer.wrap("inner", inner)
    failing = tracer.wrap("failing", failing)

    def outer():
        inner()
        with pytest.raises(KeyError):
            failing()
        return 2

    outer = tracer.wrap("outer", outer)
    tracer.session = 7
    assert outer() == 2
    assert list(tracer.span_parent) == [NO_PARENT, 0, 0]
    assert list(tracer.span_session) == [7, 7, 7]
    summary = tracer.summary()
    # outer spans ticks 0..50, inner 10..20, failing 30..40
    assert summary.self_ns == {"outer": 30, "inner": 10, "failing": 10}
    assert summary.top_ns == 50
    assert summary.session_self_ns[(7, "outer")] == 30


def test_summary_from_an_offset_drops_earlier_spans():
    ticks = iter(range(0, 1000, 10))
    tracer = Tracer(clock=lambda: next(ticks))
    setup = tracer.wrap("setup", lambda: None)
    leaf = tracer.wrap("leaf", lambda: None)
    run = tracer.wrap("run", lambda: leaf())
    setup()
    first = len(tracer)
    run()
    summary = tracer.summary(first)
    assert dict(summary.calls) == {"run": 1, "leaf": 1}
    assert summary.self_ns["run"] + summary.self_ns["leaf"] == \
        summary.top_ns


@pytest.mark.parametrize("count, expected", [
    (19, None), (20, 50.0), (33, 65.0), (34, 70.0), (40, 75.0),
    (99, 85.0), (100, 90.0), (200, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_rule_needs_ten_samples_beyond(count, expected):
    assert tail_percentile(count) == expected
    if expected is not None:
        assert samples_beyond(count, expected) >= 10


@pytest.mark.parametrize("pct, expected", [
    (50.0, 20), (70.0, 34), (75.0, 40), (90.0, 100), (99.0, 1000),
])
def test_samples_needed_is_the_smallest_count_the_rule_admits(pct,
                                                              expected):
    assert samples_needed(pct) == expected
    assert tail_percentile(expected) >= pct
    assert samples_beyond(expected - 1, pct) < 10


def test_samples_beyond_counts_strictly_above():
    values = list(range(1, 41))
    p75 = percentile(values, 75.0)
    assert sum(1 for v in values if v > p75) == samples_beyond(40, 75.0)


def test_percentile_interpolates_like_inclusive_quantiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0]
    assert percentile(values, 50.0) == statistics.median(values)
    assert percentile(values, 75.0) == \
        statistics.quantiles(values, n=4, method="inclusive")[2]
    assert percentile([3.0], 90.0) == 3.0
    with pytest.raises(ValueError):
        percentile([], 50.0)


def test_failed_frac():
    assert failed_frac(0, 72) == 0.0
    assert failed_frac(3, 12) == 0.25
    with pytest.raises(ValueError):
        failed_frac(0, 0)
    with pytest.raises(ValueError):
        failed_frac(5, 4)


def test_patches_undo_restores_inherited_methods():
    class Base:
        def probe(self):
            return "base"

    class Child(Base):
        pass

    patches = Patches()
    patches.replace(Child, "probe", lambda fn: lambda self: "wrapped")
    assert Child().probe() == "wrapped"
    patches.undo()
    assert "probe" not in vars(Child)
    assert Child().probe() == "base"
