"""AsyncScheduler units: what the asyncio front adds to the scheduler.

The ordering contract (per-tenant FIFO, fair share, one at a time)
is the :class:`Scheduler`'s and is tested once, through
both fronts, in ``tests/tenancy/test_scheduler.py``. Here: bounded-queue
backpressure, the retry hint, awaitable results and lifecycle, and the
rule that a burst submitted in one loop turn is queued in full before
any of it runs.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.service.asyncsched import AsyncScheduler, BackpressureError
from repro.tenancy.scheduler import Operation, Scheduler

def _sched(**kwargs):
    return AsyncScheduler(Scheduler(), **kwargs)


def _op(tenant, fn, kind="work"):
    return Operation(kind=kind, tenant_id=tenant, fn=fn)


def _run(coro):
    return asyncio.run(coro)


def test_backpressure_rejects_over_bound_and_preserves_queue():
    async def main():
        sched = _sched(max_pending=3)
        gate = threading.Event()
        futures = [
            sched.submit(_op("a", lambda: gate.wait(5)))
            for _ in range(3)
        ]
        depth_before = sched.depth
        with pytest.raises(BackpressureError) as err:
            sched.submit(_op("b", lambda: None))
        # the reject is zero-mutation: nothing was queued for b, the
        # depth did not move, and the hint carries the observed depth
        assert sched.depth == depth_before == 3
        assert "b" not in sched.core.queue_depths
        assert err.value.queue_depth == 3
        assert err.value.retry_after >= 0.05
        gate.set()
        await asyncio.gather(*futures)
        # after the queue drains, the same submit is admitted
        await sched.submit(_op("b", lambda: None))
        await sched.shutdown()

    _run(main())


def test_retry_after_scales_with_depth_and_has_floor():
    sched = _sched(max_pending=64)
    assert sched.retry_after(0) == pytest.approx(0.05)
    assert sched.retry_after(8) > sched.retry_after(2)
    # depth * ewma with the default ewma
    assert sched.retry_after(8) == pytest.approx(8 * sched._ewma_op_seconds)
    sched.core.shutdown()


def test_retry_after_tracks_observed_service_time():
    async def main():
        sched = _sched(max_pending=8)
        first = sched._ewma_op_seconds
        for _ in range(8):
            before = sched._ewma_op_seconds
            await sched.submit(_op("a", lambda: None))
            # an instant op drags the EWMA (and the retry hint) down,
            # and has done so by the time its awaiter resumes
            assert sched._ewma_op_seconds < before
        assert sched.retry_after(4) < 4 * first
        await sched.shutdown()

    _run(main())


def test_op_exception_propagates_and_scheduler_survives():
    async def main():
        sched = _sched()

        def boom():
            raise ValueError("op failed")

        with pytest.raises(ValueError):
            await sched.submit(_op("a", boom))
        assert await sched.submit(_op("a", lambda: 42)) == 42
        await sched.shutdown()

    _run(main())


def test_shutdown_drains_pending_work():
    done: list[int] = []

    async def main():
        sched = _sched()
        for i in range(5):
            sched.submit(_op("a", lambda n=i: done.append(n)))
        await sched.shutdown()

    _run(main())
    assert done == [0, 1, 2, 3, 4]


def test_burst_is_queued_in_full_before_any_body_runs():
    """The round-robin pick depends on which tenants have work queued
    when an operation finishes. ``a0`` is instant: if it could finish
    while the loop is still submitting, ``a1`` (alone in the queue)
    would be picked ahead of ``b0`` and the order would follow thread
    timing rather than the submission sequence."""
    order: list[str] = []

    async def main():
        sched = _sched()
        for tenant in ("a", "b"):  # both tenants known to the walk
            await sched.submit(_op(tenant, lambda: None))
        burst = [
            sched.submit(_op("a", lambda: order.append("a0"))),
            sched.submit(_op("a", lambda: order.append("a1"))),
        ]
        time.sleep(0.05)  # the loop is busy; a worker thread is not
        burst.append(sched.submit(_op("b", lambda: order.append("b0"))))
        await asyncio.gather(*burst)
        await sched.shutdown()

    _run(main())
    assert order == ["a0", "b0", "a1"]
