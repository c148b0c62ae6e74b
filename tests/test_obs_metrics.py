"""Metrics registry: instruments, disabled mode, snapshot determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    NULL_INSTRUMENT,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


def test_counter_and_gauge_basics():
    registry = MetricsRegistry()
    c = registry.counter("a.count")
    c.inc()
    c.inc(4)
    g = registry.gauge("a.level")
    g.set(10)
    g.add(-3)
    assert registry.value("a.count") == 5
    assert registry.value("a.level") == 7
    assert registry.value("missing") is None


def test_same_name_returns_same_instrument():
    registry = MetricsRegistry()
    assert registry.counter("x") is registry.counter("x")
    assert registry.gauge("y") is registry.gauge("y")
    assert registry.histogram("z") is registry.histogram("z")


def test_histogram_buckets_and_mean():
    h = Histogram("h", bounds=(10, 100))
    for v in (5, 10, 11, 100, 5000):
        h.observe(v)
    assert h.counts == [2, 2, 1]     # <=10, <=100, overflow
    assert h.total == 5
    assert h.mean == pytest.approx(5126 / 5)


def _linear_scan_observe(h, value):
    """Reference: the first bucket whose bound is >= value, by a linear
    scan, else the overflow slot."""
    h.total += 1
    h.sum += value
    if value > h.max:
        h.max = value
    for i, bound in enumerate(h.bounds):
        if value <= bound:
            h.counts[i] += 1
            return
    h.counts[-1] += 1


_values = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), 0, -0.0]),
)
_bounds = st.one_of(
    st.just(DEFAULT_BUCKETS),
    st.lists(st.one_of(st.integers(-1000, 1000),
                       st.floats(allow_nan=False, allow_infinity=True)),
             min_size=1, max_size=8).map(lambda b: tuple(sorted(b))),
)


@settings(max_examples=300, deadline=None)
@given(bounds=_bounds, values=st.lists(_values, max_size=40))
def test_histogram_observe_matches_linear_scan(bounds, values):
    fast = Histogram("h", bounds=bounds)
    slow = Histogram("h", bounds=bounds)
    for value in values:
        fast.observe(value)
        _linear_scan_observe(slow, value)
    # repr() so a NaN sum or max compares equal to itself.
    assert (repr((fast.counts, fast.total, fast.sum, fast.max))
            == repr((slow.counts, slow.total, slow.sum, slow.max)))


def test_histogram_nan_lands_in_overflow_slot():
    h = Histogram("h", bounds=(10, 100))
    h.observe(float("nan"))
    assert h.counts == [0, 0, 1]


def test_histogram_rejects_unsorted_bounds():
    with pytest.raises(ValueError):
        Histogram("h", bounds=(10, 5))


def test_disabled_registry_hands_out_shared_null_instrument():
    registry = MetricsRegistry(enabled=False)
    c = registry.counter("a")
    assert c is NULL_INSTRUMENT
    assert registry.gauge("b") is NULL_INSTRUMENT
    assert registry.histogram("c") is NULL_INSTRUMENT
    # every instrument method is accepted as a no-op
    c.inc()
    c.set(5)
    c.add(1)
    c.observe(2)
    snap = registry.snapshot()
    assert snap["counters"] == {}
    assert snap["gauges"] == {}
    assert snap["histograms"] == {}
    assert NULL_REGISTRY.counter("anything") is NULL_INSTRUMENT


def test_snapshot_is_sorted_and_registration_order_free():
    def build(names):
        registry = MetricsRegistry()
        for name in names:
            registry.counter(name).inc()
        return registry.snapshot(time_ns=42)

    a = build(["z.one", "a.two", "m.three"])
    b = build(["m.three", "z.one", "a.two"])
    assert a == b
    assert list(a["counters"]) == ["a.two", "m.three", "z.one"]
    assert a["time_ns"] == 42


def test_render_lists_all_instruments():
    registry = MetricsRegistry()
    registry.counter("vm.instructions").inc(7)
    registry.gauge("heap.bytes").set(128)
    registry.histogram("alloc.size").observe(32)
    text = registry.render()
    assert "vm.instructions" in text
    assert "heap.bytes" in text
    assert "alloc.size" in text and "total=1" in text
    assert MetricsRegistry().render() == "  (no instruments)"


def test_histogram_quantiles():
    h = Histogram("h", bounds=(10, 100, 1000))
    for v in (1, 5, 50, 200, 900, 5000):
        h.observe(v)
    # cumulative: <=10 -> 2, <=100 -> 3, <=1000 -> 5, overflow -> 6
    assert h.quantile(0.0) == 10
    assert h.quantile(0.5) == 100
    assert h.quantile(0.75) == 1000
    assert h.quantile(1.0) == 5000    # overflow bucket reports the max
    assert h.max == 5000


def test_histogram_quantile_empty_and_bad_q():
    h = Histogram("h", bounds=(10,))
    assert h.quantile(0.5) == 0       # empty histogram: no data, 0
    with pytest.raises(ValueError):
        h.quantile(-0.1)
    with pytest.raises(ValueError):
        h.quantile(1.1)


def test_histogram_quantile_exact_rank_boundaries():
    h = Histogram("h", bounds=(1, 2, 3, 4))
    for v in (1, 2, 3, 4):
        for _ in range(5):
            h.observe(v)
    # 20 observations; 0.95 * 20 == 19 exactly (float fuzz must not
    # push the rank into the next bucket).
    assert h.quantile(0.95) == 4
    assert h.quantile(0.25) == 1
    assert h.quantile(0.75) == 3


def test_histogram_merge_and_snapshot_round_trip():
    a = Histogram("h", bounds=(10, 100))
    b = Histogram("h", bounds=(10, 100))
    for v in (5, 50):
        a.observe(v)
    for v in (500, 7):
        b.observe(v)
    a.merge_from(b)
    assert a.total == 4
    assert a.max == 500
    snap = a.to_snapshot()
    assert snap["p50"] == 10
    again = Histogram.from_snapshot("h", snap)
    assert again.to_snapshot() == snap
    with pytest.raises(ValueError):
        a.merge_from(Histogram("h", bounds=(1, 2)))


def test_snapshot_and_render_report_percentiles():
    registry = MetricsRegistry()
    h = registry.histogram("lat", bounds=(10, 100))
    for v in (5, 50, 500):
        h.observe(v)
    snap = registry.snapshot()["histograms"]["lat"]
    assert snap["p50"] == 100
    assert snap["p99"] == 500
    text = registry.render()
    assert "p50=100" in text and "p99=500" in text
