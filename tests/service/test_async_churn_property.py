"""Satellite property: async churn == the synchronous Scheduler.

For a randomized admit/deploy/reconfigure/evict interleaving across
three tenants, the final cluster state after driving the async
control-plane service must be **bit-identical** to running the same
operation sequence through the synchronous
:class:`~repro.tenancy.scheduler.Scheduler` — installed rules per
switch, tenant session records, and controller allocation counters.

Why this holds: both fronts submit to the same scheduler, which runs
one operation at a time in the same order (fair-share round-robin
over per-tenant FIFO queue heads). The one subtlety is
*when* dispatch decisions happen: the round-robin pick depends on
which tenant queues are non-empty at that instant, so both drivers
submit each barrier-delimited segment in full before any operation
body runs (the sync side gates op bodies on an event, the async side
submits in a tight no-await loop). Admissions are the barriers: a
lease allocation reads every session's state, so it must observe the
same world in both drivers.

``SDT_PROP_CASES`` scales the case count (nightly stress runs it
elevated); failures reproduce from the case index in the message.
"""

from __future__ import annotations

import asyncio
import threading

from repro.tenancy import TestbedService

from tests.proptools import prop_cases, seeded_cases
from tests.service.servicetools import CONFIGS, QUOTA, TENANTS, service_pool

ROOT_SEED = 20260808


def _generate(rng) -> list[tuple]:
    """A random valid op sequence: (kind, tenant, config_toggle)."""
    ops: list[tuple] = [("admit", t) for t in TENANTS]
    # model: tenant -> None (not admitted) | "idle" | 0/1 (deployed cfg)
    state: dict = {t: "idle" for t in TENANTS}
    for _ in range(int(rng.integers(6, 13))):
        t = TENANTS[int(rng.integers(len(TENANTS)))]
        if state[t] is None:
            ops.append(("admit", t))
            state[t] = "idle"
        elif state[t] == "idle":
            if rng.random() < 0.75:
                ops.append(("deploy", t))
                state[t] = 0
            else:
                ops.append(("evict", t))
                state[t] = None
        else:
            roll = rng.random()
            if roll < 0.5:
                ops.append(("reconfigure", t))
                state[t] = 1 - state[t]
            else:
                ops.append(("evict", t))
                state[t] = None
    return ops


def _segments(ops: list[tuple]):
    """Split at admits: each admit is a barrier, the rest queue freely."""
    segment: list[tuple] = []
    for op in ops:
        if op[0] == "admit":
            yield segment, op
            segment = []
        else:
            segment.append(op)
    yield segment, None


def _make_op(service: TestbedService, op: tuple, toggles: dict):
    kind, tenant = op
    if kind == "deploy":
        toggles[tenant] = 0
        return service.make_operation(
            "deploy", tenant, config=CONFIGS[tenant][0]
        )
    if kind == "reconfigure":
        old = toggles[tenant]
        toggles[tenant] = 1 - old
        return service.make_operation(
            "reconfigure",
            tenant,
            name=CONFIGS[tenant][old].params["name"],
            config=CONFIGS[tenant][1 - old],
        )
    if kind == "evict":
        return service.make_operation("evict", tenant)
    raise AssertionError(kind)


def _fingerprint(service: TestbedService) -> dict:
    return {
        "tables": {
            name: sw.installed_rules()
            for name, sw in service.cluster.switches.items()
        },
        "sessions": {
            t: s.to_state() for t, s in service.sessions.items()
        },
        "next_index": service._next_index,
        "next_cookie": service.controller._next_cookie,
        "next_metadata": service.controller._next_metadata,
    }


def _drive_sync(ops: list[tuple]) -> dict:
    service = TestbedService(service_pool())
    toggles: dict = {}
    try:
        for segment, admit in _segments(ops):
            gate = threading.Event()
            futures = []
            for op in segment:
                sched_op = _make_op(service, op, toggles)
                inner = sched_op.fn
                sched_op.fn = (
                    lambda body=inner: (gate.wait(10), body())[1]
                )
                futures.append(service.scheduler.submit(sched_op))
            gate.set()
            for future in futures:
                future.result()
            service.scheduler.drain(10)
            if admit is not None:
                service.open_session(admit[1], QUOTA)
        return _fingerprint(service)
    finally:
        service.shutdown()


def _drive_async(ops: list[tuple]) -> dict:
    from repro.service.app import ControlPlaneService

    async def run() -> dict:
        service = ControlPlaneService(service_pool(), max_pending=256)
        await service.start()
        toggles: dict = {}
        try:
            for segment, admit in _segments(ops):
                # tight no-await submission: the queue fills before any
                # dispatch decision beyond the first is taken
                futures = [
                    service.scheduler.submit(
                        _make_op(service.testbed, op, toggles)
                    )
                    for op in segment
                ]
                await asyncio.gather(*futures)
                await service.scheduler.drain(10)
                if admit is not None:
                    await service.open_session(admit[1], QUOTA)
            return _fingerprint(service.testbed)
        finally:
            await service.stop()

    return asyncio.run(run())


def test_async_churn_matches_sync_scheduler_bit_identically():
    cases = prop_cases(200)
    for idx, rng in seeded_cases(cases, ROOT_SEED, "async-churn"):
        ops = _generate(rng)
        expected = _drive_sync(ops)
        actual = _drive_async(ops)
        assert actual == expected, (
            f"case {idx}: async final state diverged from the sync "
            f"scheduler for ops={ops}"
        )
