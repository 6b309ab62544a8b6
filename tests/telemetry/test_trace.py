"""Tracer unit tests: nesting, journal order, export, no-op gating."""

from __future__ import annotations

import json
import threading

import pytest

from repro.telemetry import (
    NULL_SPAN,
    SCHEMA_VERSION,
    Tracer,
    active_tracer,
    install_tracer,
    load_trace,
    trace,
    uninstall_tracer,
)


@pytest.fixture(autouse=True)
def _no_ambient_tracer():
    uninstall_tracer()
    yield
    uninstall_tracer()


def test_span_nesting_and_parent_ids():
    t = Tracer()
    with t.span("outer") as outer:
        with t.span("inner") as inner:
            assert inner.parent_id == outer.span_id
    recs = t.spans()
    # children close (and record) before parents, Chrome-trace style
    assert [r["name"] for r in recs] == ["inner", "outer"]
    by_name = {r["name"]: r for r in recs}
    assert by_name["inner"]["parent"] == by_name["outer"]["id"]
    assert by_name["outer"]["parent"] is None


def test_spans_open_on_two_threads_do_not_cross_parent():
    """A span (or event) opened on one thread parents onto that thread's
    innermost open span, whatever another thread has open meanwhile."""
    t = Tracer()
    opened, looked = threading.Event(), threading.Event()
    seen = {}

    def worker():
        with t.span("worker.op") as op:
            opened.set()
            assert looked.wait(10)
            with t.span("worker.step") as step:
                seen["step_parent"] = step.parent_id
            seen["op"] = op.span_id

    thread = threading.Thread(target=worker)
    thread.start()
    assert opened.wait(10)
    with t.span("loop.request") as request:
        t.event("loop.event")
        with t.span("loop.child") as child:
            seen["child_parent"] = child.parent_id
    looked.set()
    thread.join(10)

    assert request.parent_id is None
    assert t.events("loop.event")[0]["span"] == request.span_id
    assert seen["child_parent"] == request.span_id
    assert seen["step_parent"] == seen["op"]
    by_name = {r["name"]: r for r in t.spans()}
    assert by_name["worker.op"]["parent"] is None
    assert by_name["loop.request"]["parent"] is None


def test_events_attach_to_innermost_open_span():
    t = Tracer()
    t.event("orphan")
    with t.span("op") as sp:
        t.event("inside", n=1)
        sp.event("direct", n=2)
    assert t.events("orphan")[0]["span"] is None
    span_id = t.spans("op")[0]["id"]
    assert [e["span"] for e in t.events() if e["name"] != "orphan"] == (
        [span_id, span_id]
    )


def test_seq_totally_orders_records():
    t = Tracer()  # no clock: timestamps fall back to the seq counter
    with t.span("a"):
        t.event("e1")
        t.event("e2")
    seqs = [r["seq"] for r in t.records]
    assert sorted(seqs) == sorted(set(seqs))  # unique
    e1, e2 = t.events("e1")[0], t.events("e2")[0]
    assert e1["seq"] < e2["seq"]
    assert e1["t"] < e2["t"]


def test_sim_time_clock():
    now = {"t": 0.0}
    t = Tracer(clock=lambda: now["t"])
    sp = t.span("op")
    now["t"] = 2.5
    sp.close()
    rec = t.spans("op")[0]
    assert rec["t0"] == 0.0 and rec["t1"] == 2.5


def test_span_status_and_attrs():
    t = Tracer()
    with pytest.raises(RuntimeError):
        with t.span("boom", phase="x"):
            raise RuntimeError("no")
    rec = t.spans("boom")[0]
    assert rec["status"] == "error"
    assert rec["attrs"] == {"phase": "x"}
    with t.span("fine") as sp:
        sp.set("rules", 42)
    assert t.spans("fine")[0]["status"] == "ok"
    assert t.spans("fine")[0]["attrs"]["rules"] == 42


def test_close_is_idempotent():
    t = Tracer()
    sp = t.span("once")
    sp.close()
    sp.close("error")  # ignored: already closed as ok
    assert [r["status"] for r in t.spans("once")] == ["ok"]


def test_attrs_coerced_to_jsonable():
    t = Tracer()
    with t.span("op") as sp:
        sp.set("obj", {1: (1, 2), "s": {"nested": object()}})
    attrs = t.spans("op")[0]["attrs"]["obj"]
    json.dumps(attrs)  # round-trips
    assert attrs["1"] == [1, 2]


def test_jsonl_round_trip(tmp_path):
    t = Tracer()
    with t.span("op", k="v"):
        t.event("ev", n=3)
    path = tmp_path / "trace.jsonl"
    assert t.dump(path) == 2
    header = json.loads(path.read_text().splitlines()[0])
    assert header == {"type": "header", "v": SCHEMA_VERSION, "records": 2}
    records = load_trace(path)
    assert records == t.records


def test_process_wide_install_and_module_helpers():
    assert active_tracer() is None
    assert not trace.enabled()
    # uninstalled: module-level span is the shared no-op
    assert trace.span("ignored") is NULL_SPAN
    trace.event("ignored")  # swallowed

    t = install_tracer()
    assert active_tracer() is t
    with trace.span("live"):
        trace.event("ev")
    assert uninstall_tracer() is t
    assert active_tracer() is None
    assert [r["name"] for r in t.records] == ["ev", "live"]


def test_null_span_is_inert():
    with trace.span("nothing") as sp:
        sp.set("k", "v")
        sp.event("e")
    assert sp is NULL_SPAN
