"""Scheduler: FIFO per tenant, fair share across tenants, one
operation at a time.

Every test runs twice: against the :class:`Scheduler` itself and
through the asyncio front the long-running service submits with
(:class:`~repro.service.asyncsched.AsyncScheduler`, driven from the
test thread through a loop on a helper thread). One dispatcher, one
ordering contract, two ways in.
"""

import asyncio
import threading
import time

import pytest

from repro.service.asyncsched import AsyncScheduler
from repro.tenancy import Operation, Scheduler
from repro.util.errors import ConfigurationError

class _Direct:
    def __init__(self):
        self.core = Scheduler()
        self.submit = self.core.submit
        self.drain = self.core.drain
        self.shutdown = self.close = self.core.shutdown


class _ThroughLoop:
    """The asyncio front with the same blocking surface: ``submit``
    returns once the loop has admitted the operation, with a
    ``concurrent.futures`` future for its result."""

    def __init__(self):
        self.front = AsyncScheduler(Scheduler())
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever)
        self.thread.start()

    def _on_loop(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop)

    def submit(self, op):
        async def admit():
            return self.front.submit(op)

        async def result(awaitable):
            return await awaitable

        return self._on_loop(result(self._on_loop(admit()).result(5)))

    def drain(self, timeout):
        return self._on_loop(self.front.drain(timeout)).result(timeout + 5)

    def shutdown(self):
        self._on_loop(self.front.shutdown()).result(10)

    def close(self):
        self.shutdown()
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


@pytest.fixture(params=[_Direct, _ThroughLoop], ids=["direct", "asyncio"])
def make_sched(request):
    made = []

    def make():
        made.append(request.param())
        return made[-1]

    yield make
    for sched in made:
        sched.close()


def _op(tenant, record, *, kind="deploy", block=None, tag=None):
    def fn():
        if block is not None:
            block.wait(5)
        record.append(tag if tag is not None else tenant)
        return tag

    return Operation(kind=kind, tenant_id=tenant, fn=fn)


def test_single_worker_runs_in_submission_order(make_sched):
    sched = make_sched()
    record = []
    futures = [sched.submit(_op("a", record, tag=i)) for i in range(5)]
    assert sched.drain(5)
    assert record == [0, 1, 2, 3, 4]
    assert [f.result() for f in futures] == [0, 1, 2, 3, 4]


def test_fifo_per_tenant_despite_concurrency(make_sched):
    """One tenant's ops run in the order it submitted them."""
    sched = make_sched()
    record = []
    for i in range(6):
        sched.submit(_op("a", record, tag=i))
    assert sched.drain(5)
    assert record == [0, 1, 2, 3, 4, 5]


def test_whole_pool_op_serializes_everything(make_sched):
    """An op waits for the running one, and blocks all queued work
    while it runs."""
    sched = make_sched()
    record = []
    gate = threading.Event()
    sched.submit(_op("a", record, block=gate, tag="a1"))
    sched.submit(_op("b", record, tag="b-pool"))
    sched.submit(_op("c", record, tag="c1"))
    time.sleep(0.05)
    # only a1 can be running; c must not overtake b
    assert record == []
    gate.set()
    assert sched.drain(5)
    assert record.index("b-pool") < record.index("c1")


def test_round_robin_is_fair_across_tenants(make_sched):
    """A tenant queueing many ops cannot starve one queueing a single
    op: with one worker, dispatch alternates tenants."""
    sched = make_sched()
    record = []
    gate = threading.Event()
    sched.submit(_op("hog", record, block=gate, tag="h0"))
    for i in range(1, 4):
        sched.submit(_op("hog", record, tag=f"h{i}"))
    sched.submit(_op("meek", record, tag="m0"))
    gate.set()
    assert sched.drain(5)
    # meek's single op ran before the hog's queue drained
    assert record.index("m0") < record.index("h3")


def test_round_robin_order_is_exact(make_sched):
    """Ops run one at a time, and the order is the
    fair-share walk over the tenants' queue heads — the order the
    churn equivalence property builds on."""
    sched = make_sched()
    record = []
    gate = threading.Event()
    for tenant, tag in [
        ("a", "a0"), ("a", "a1"), ("a", "a2"), ("b", "b0"), ("c", "c0"),
        ("b", "b1"),
    ]:
        sched.submit(_op(tenant, record, block=gate, tag=tag))
    gate.set()
    assert sched.drain(5)
    # the cursor wrapped to "a" while it was the only tenant known
    assert record == ["a0", "a1", "b0", "c0", "a2", "b1"]


def test_fifo_per_tenant_across_disjoint_tenants(make_sched):
    """Tenants interleave, but each tenant's own queue stays FIFO."""
    sched = make_sched()
    seen = {"a": [], "b": []}
    for i in range(6):
        for tenant in ("a", "b"):
            sched.submit(_op(tenant, seen[tenant], tag=i))
    assert sched.drain(5)
    assert seen == {"a": list(range(6)), "b": list(range(6))}


def test_blocked_head_is_not_overtaken_by_its_own_tail(make_sched):
    sched = make_sched()
    record = []
    gate = threading.Event()
    sched.submit(_op("a", record, block=gate, tag="a.slow"))
    # only queue heads are candidates: b's tail waits for b's head
    sched.submit(_op("b", record, tag="b.head"))
    sched.submit(_op("b", record, tag="b.tail"))
    time.sleep(0.05)
    assert record == []  # everything parked behind the slow op
    gate.set()
    assert sched.drain(5)
    assert record == ["a.slow", "b.head", "b.tail"]


def test_no_two_bodies_overlap(make_sched):
    """Whatever their kinds and tenants, operation bodies never run at
    the same time: the control program is serial."""
    sched = make_sched()
    lock = threading.Lock()
    running = [0]
    peak = [0]
    ran = []

    def body(tag):
        def fn():
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            time.sleep(0.005)
            with lock:
                running[0] -= 1
            ran.append(tag)

        return fn

    kinds = ("deploy", "reconfigure", "undeploy", "evict", "close")
    tenants = ("a", "b", "c")
    for i in range(15):
        sched.submit(Operation(
            kind=kinds[i % len(kinds)], tenant_id=tenants[i % len(tenants)],
            fn=body(i),
        ))
    assert sched.drain(5)
    assert sorted(ran) == list(range(15))
    assert peak[0] == 1


def test_exception_delivered_via_future(make_sched):
    sched = make_sched()

    def boom():
        raise ValueError("nope")

    f = sched.submit(Operation(kind="deploy", tenant_id="a", fn=boom))
    with pytest.raises(ValueError, match="nope"):
        f.result(5)
    assert sched.drain(5)  # a failed op must not wedge the queue


def test_shutdown_refuses_new_work(make_sched):
    sched = make_sched()
    sched.shutdown()
    with pytest.raises(ConfigurationError, match="shut down"):
        sched.submit(
            Operation(kind="deploy", tenant_id="a", fn=lambda: None)
        )


def test_churned_tenants_leave_the_rotation():
    """A tenant leaves the scheduler's books with its session: after
    300 short-lived tenants came and went, only the resident tenants
    are in the rotation, and the tenants queued behind a departure are
    still served round-robin."""
    sched = Scheduler()
    try:
        record = []
        residents = ["r0", "r1", "r2"]
        for i in range(300):
            churner = f"churn{i}"
            for kind in ("deploy", "reconfigure", "close" if i % 2 else "evict"):
                sched.submit(_op(churner, record, kind=kind))
            sched.submit(_op(residents[i % 3], record, tag="tick"))
        assert sched.drain(10)
        assert set(sched._pending) == set(residents)
        assert sched._tenant_order == residents

        gate = threading.Event()
        record.clear()
        sched.submit(_op("r0", record, block=gate, tag="r0-0"))
        sched.submit(_op("late", record, kind="close", tag="late-0"))
        for i in (1, 2):
            for tenant in residents:
                sched.submit(_op(tenant, record, tag=f"{tenant}-{i}"))
        gate.set()
        assert sched.drain(10)
        # one op of every queued tenant before anyone's second
        assert sorted(record[1:5]) == ["late-0", "r0-1", "r1-1", "r2-1"]
        assert sorted(record[5:]) == ["r0-2", "r1-2", "r2-2"]
        assert set(sched._pending) == set(residents)
        assert sched._tenant_order == residents
    finally:
        sched.shutdown()
