"""Satellite backpressure: overload the bounded queue and prove the
rejects are zero-mutation and the retry hints track the drain.

Same discipline as the admission-control suite: a rejected request
must leave the world bit-identical — switch tables, session ledgers,
per-session cookie counters — because a reject that half-mutates is a
correctness bug, not a capacity policy. The overload is produced by
parking gate-blocked filler operations on the scheduler, so the tests
control exactly when the queue drains.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.service.app import ControlPlaneService
from repro.service.asyncsched import BackpressureError
from repro.service.http import http_call
from repro.tenancy.scheduler import Operation

from tests.service.servicetools import CONFIGS, QUOTA, service_pool


def _fingerprint(service: ControlPlaneService) -> dict:
    return {
        "tables": {
            name: sw.entry_keys()
            for name, sw in service.testbed.cluster.switches.items()
        },
        "sessions": {
            t: s.to_state() for t, s in service.testbed.sessions.items()
        },
        "next_seq": {
            t: s._next_seq for t, s in service.testbed.sessions.items()
        },
        "next_cookie": service.testbed.controller._next_cookie,
    }


def _filler(gate: threading.Event) -> Operation:
    return Operation(
        kind="filler", tenant_id="filler",
        fn=lambda: gate.wait(10),
    )


def test_overload_reject_is_zero_mutation():
    async def main():
        service = ControlPlaneService(
            service_pool(), max_pending=4
        )
        await service.start()
        try:
            await service.open_session("alice", QUOTA)
            await service.submit(
                "deploy", "alice", config=CONFIGS["alice"][0]
            )
            gate = threading.Event()
            fillers = [
                service.scheduler.submit(_filler(gate)) for _ in range(4)
            ]
            before = _fingerprint(service)
            with pytest.raises(BackpressureError) as err:
                await service.submit(
                    "reconfigure", "alice",
                    name="alice-a", config=CONFIGS["alice"][1],
                )
            # bit-identical world: the reject touched nothing
            assert _fingerprint(service) == before
            assert err.value.queue_depth == 4
            assert err.value.retry_after > 0
            gate.set()
            await asyncio.gather(*fillers)
        finally:
            await service.stop()

    asyncio.run(main())


def test_reject_then_drain_then_same_request_succeeds():
    async def main():
        service = ControlPlaneService(
            service_pool(), max_pending=2
        )
        await service.start()
        try:
            await service.open_session("alice", QUOTA)
            gate = threading.Event()
            fillers = [
                service.scheduler.submit(_filler(gate)) for _ in range(2)
            ]
            with pytest.raises(BackpressureError):
                await service.submit(
                    "deploy", "alice", config=CONFIGS["alice"][0]
                )
            gate.set()
            await asyncio.gather(*fillers)
            await service.scheduler.drain(10)
            # the verbatim retry is admitted once the queue drained
            await service.submit(
                "deploy", "alice", config=CONFIGS["alice"][0]
            )
            state = service.testbed.sessions["alice"].to_state()
            assert state["deployments"] == ["alice-a"]
        finally:
            await service.stop()

    asyncio.run(main())


def test_retry_after_covers_the_observed_drain():
    """The hint is an estimate of one full queue drain: sleeping it
    after a reject must be enough for the backlog produced by
    known-duration ops to clear."""

    async def main():
        service = ControlPlaneService(
            service_pool(), max_pending=3
        )
        await service.start()
        try:
            await service.open_session("alice", QUOTA)
            # teach the EWMA the op duration with a few completed ops
            for _ in range(4):
                await service.scheduler.submit(Operation(
                    kind="warm", tenant_id="filler",
                    fn=lambda: threading.Event().wait(0.02),
                ))
            fillers = [
                service.scheduler.submit(Operation(
                    kind="slow", tenant_id="filler",
                    fn=lambda: threading.Event().wait(0.02),
                ))
                for _ in range(3)
            ]
            with pytest.raises(BackpressureError) as err:
                await service.submit(
                    "deploy", "alice", config=CONFIGS["alice"][0]
                )
            await asyncio.sleep(min(err.value.retry_after, 5.0))
            await asyncio.gather(*fillers)
            # after one advised backoff the queue accepts the retry
            await service.submit(
                "deploy", "alice", config=CONFIGS["alice"][0]
            )
        finally:
            await service.stop()

    asyncio.run(main())


def test_retry_after_is_not_divided_by_idle_workers():
    """Operations drain one at a time, so the hint a reject carries
    must be of the order of the drain that follows it."""

    def op(kind: str) -> Operation:
        return Operation(
            kind=kind, tenant_id="filler",
            fn=lambda: threading.Event().wait(0.1),
        )

    async def main():
        service = ControlPlaneService(
            service_pool(), max_pending=4
        )
        await service.start()
        try:
            await service.open_session("alice", QUOTA)
            for _ in range(3):  # teach the EWMA the op duration
                await service.scheduler.submit(op("warm"))
            fillers = [service.scheduler.submit(op("slow")) for _ in range(4)]
            with pytest.raises(BackpressureError) as err:
                await service.submit(
                    "deploy", "alice", config=CONFIGS["alice"][0]
                )
            t0 = time.perf_counter()
            await asyncio.gather(*fillers)
            drain = time.perf_counter() - t0
            assert err.value.retry_after >= drain / 2
        finally:
            await service.stop()

    asyncio.run(main())


def test_http_overload_returns_429_with_retry_after():
    async def main():
        service = ControlPlaneService(
            service_pool(), max_pending=2,
            host="127.0.0.1", port=0,
        )
        await service.start()
        try:
            await service.open_session("alice", QUOTA)
            gate = threading.Event()
            fillers = [
                service.scheduler.submit(_filler(gate)) for _ in range(2)
            ]
            loop = asyncio.get_running_loop()
            spec = CONFIGS["alice"][0]
            payload = {
                "topology": {
                    "kind": spec.kind,
                    "params": spec.params,
                    "routing": spec.routing,
                    "lossless": spec.lossless,
                }
            }
            status, headers, body = await loop.run_in_executor(
                None,
                lambda: http_call(
                    "127.0.0.1", service.bound_port, "POST",
                    "/v1/sessions/alice/deploy", payload,
                ),
            )
            assert status == 429
            assert float(headers["retry-after"]) > 0
            assert body["retry_after_s"] == pytest.approx(
                float(headers["retry-after"]), abs=1e-3
            )
            assert body["queue_depth"] == 2
            gate.set()
            await asyncio.gather(*fillers)
        finally:
            await service.stop()

    asyncio.run(main())
