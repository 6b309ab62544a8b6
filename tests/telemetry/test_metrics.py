"""Metrics unit tests: instruments, labels, registry semantics."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import MetricsRegistry, registry, set_registry
from repro.telemetry.metrics import DEFAULT_BUCKETS, Counter, Gauge, Histogram


def test_counter_labeled_series():
    c = Counter("sdt_test_total")
    c.inc()
    c.inc(2, switch="phys0")
    c.inc(3, switch="phys1")
    c.inc(1, switch="phys0")
    assert c.value() == 1.0
    assert c.value(switch="phys0") == 3.0
    assert c.value(switch="phys1") == 3.0
    assert c.value(switch="phys9") == 0.0
    assert list(c.series()) == [
        ({}, 1.0),
        ({"switch": "phys0"}, 3.0),
        ({"switch": "phys1"}, 3.0),
    ]


def test_counter_rejects_decrease():
    c = Counter("sdt_test_total")
    with pytest.raises(ValueError):
        c.inc(-1)


def test_label_order_is_irrelevant():
    c = Counter("sdt_test_total")
    c.inc(1, a="x", b="y")
    c.inc(1, b="y", a="x")
    assert c.value(a="x", b="y") == 2.0


def test_gauge_set_and_inc():
    g = Gauge("sdt_test_gauge")
    g.set(0.5, port=1)
    g.set(0.25, port=1)  # overwrite, not accumulate
    g.inc(0.25, port=1)
    assert g.value(port=1) == 0.5
    assert g.value(port=2) == 0.0


def test_gauge_remove_drops_only_that_series():
    g = Gauge("sdt_test_gauge")
    g.set(3, port=1)
    g.set(4, port=2)
    g.remove(port=1)
    g.remove(port=9)  # no such series: nothing to drop
    assert list(g.series()) == [({"port": 2}, 4.0)]


def test_histogram_aggregates_and_buckets():
    h = Histogram("sdt_test_seconds", buckets=(1.0, 10.0))
    for v in (0.5, 2.0, 2.0, 100.0):
        h.observe(v)
    snap = h.snapshot()
    assert snap.count == 4
    assert snap.total == 104.5
    assert snap.min == 0.5
    assert snap.max == 100.0
    assert snap.mean == pytest.approx(104.5 / 4)
    assert snap.bucket_counts == (1, 2, 1)  # <=1, <=10, +Inf
    empty = h.snapshot(op="none")
    assert empty.count == 0 and empty.mean == 0.0


def test_histogram_rejects_unsorted_buckets():
    with pytest.raises(ValueError):
        Histogram("sdt_test_seconds", buckets=(2.0, 1.0))


def test_metric_name_validation():
    with pytest.raises(ValueError):
        Counter("BadName")
    with pytest.raises(ValueError):
        Gauge("1starts_with_digit")
    Counter("sdt_ok_total")  # fine


def test_registry_get_or_create_and_kind_mismatch():
    reg = MetricsRegistry()
    c1 = reg.counter("sdt_test_total")
    assert reg.counter("sdt_test_total") is c1
    with pytest.raises(ValueError):
        reg.gauge("sdt_test_total")
    assert reg.get("sdt_test_total") is c1
    assert reg.get("sdt_missing") is None
    assert reg.names() == ["sdt_test_total"]
    reg.reset()
    assert reg.names() == []


def test_registry_to_dict_is_json_safe():
    reg = MetricsRegistry()
    reg.counter("sdt_test_total").inc(2, op="deploy")
    reg.gauge("sdt_test_gauge").set(1.5)
    reg.histogram("sdt_test_seconds").observe(0.25)
    dump = json.loads(json.dumps(reg.to_dict()))
    assert dump["sdt_test_total"]["series"] == [
        {"labels": {"op": "deploy"}, "value": 2.0}
    ]
    assert dump["sdt_test_seconds"]["series"][0]["count"] == 1


def test_summary_table_truncates_series():
    reg = MetricsRegistry()
    c = reg.counter("sdt_test_total")
    for i in range(12):
        c.inc(1, port=i)
    table = reg.summary_table(max_series=8)
    assert "sdt_test_total" in table
    assert "... 4 more series" in table


def test_process_wide_registry_swap():
    fresh = MetricsRegistry()
    old = set_registry(fresh)
    try:
        assert registry() is fresh
        registry().counter("sdt_test_total").inc()
        assert fresh.counter("sdt_test_total").value() == 1.0
    finally:
        set_registry(old)
    assert registry() is old


def test_default_buckets_are_sorted():
    assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)
