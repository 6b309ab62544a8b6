"""ControlPlaneService regressions: status must describe the dispatcher
that actually runs the operations, a malformed quota is the client's
error (400), not the server's (500), a session path means exactly the
resource it names, a session ends once, and a request that needs the
testbed lock never stalls the event loop."""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.service.app import ControlPlaneService
from repro.service.http import http_call
from repro.tenancy.scheduler import Operation
from repro.util.errors import ConfigurationError

from tests.service.servicetools import CONFIGS, QUOTA, service_pool


def test_status_reports_the_live_per_tenant_queues():
    async def main():
        service = ControlPlaneService(service_pool())
        await service.start()
        try:
            # one dispatcher: the front admits to the testbed's scheduler
            assert service.scheduler.core is service.testbed.scheduler
            gate = threading.Event()
            parked = [
                service.scheduler.submit(Operation(
                    kind="filler", tenant_id="a",
                    fn=lambda: gate.wait(10),
                ))
                for _ in range(3)
            ]
            status = service.status()
            assert status["service"]["queue_depth"] == 3
            assert status["queue_depths"] == {"a": 2}  # one is running
            gate.set()
            await asyncio.gather(*parked)
            assert service.status()["queue_depths"] == {}
        finally:
            await service.stop()

    asyncio.run(main())


@pytest.mark.parametrize("quota", [
    {"host_ports": "many", "tcam_share": 100},
    {"host_ports": 4},
    {"host_ports": 4, "tcam_share": 100, "optical_circuits": 1.5},
    {"host_ports": None, "tcam_share": 100},
    None,
])
def test_malformed_quota_is_a_400(quota):
    async def main():
        service = ControlPlaneService(
            service_pool(), host="127.0.0.1", port=0
        )
        await service.start()
        try:
            status, _, body = await asyncio.get_running_loop().run_in_executor(
                None,
                lambda: http_call(
                    "127.0.0.1", service.bound_port, "POST", "/v1/sessions",
                    {"tenant": "alice", "quota": quota},
                ),
            )
            assert status == 400
            assert "quota" in body["error"]
            assert "alice" not in service.testbed.sessions
        finally:
            await service.stop()

    asyncio.run(main())


def _drive_http(drive) -> None:
    """Run ``await drive(service, call)`` against a live HTTP service
    where alice holds an open session; ``call(method, path)`` is one
    blocking request on the service's port, run off the loop."""
    async def main():
        service = ControlPlaneService(
            service_pool(), host="127.0.0.1", port=0
        )
        await service.start()
        try:
            await service.open_session("alice", QUOTA)
            loop = asyncio.get_running_loop()

            async def call(method: str, path: str):
                return await loop.run_in_executor(
                    None, http_call, "127.0.0.1", service.bound_port,
                    method, path,
                )

            await drive(service, call)
        finally:
            await service.stop()

    asyncio.run(main())


@pytest.mark.parametrize("method, path", [
    ("DELETE", "/v1/sessions/alice/typo/x"),
    ("DELETE", "/v1/sessions/alice/deploy"),
    ("GET", "/v1/sessions/alice/a/b"),
    ("GET", "/v1/sessions/alice/deploy"),
    ("POST", "/v1/sessions/alice/deploy/x"),
])
def test_malformed_session_paths_are_404(method, path):
    """The session resource is exactly two segments and an action
    exactly three; anything longer used to alias the session."""
    async def drive(service, call):
        status, _, _ = await call(method, path)
        assert status == 404
        assert service.testbed.sessions["alice"].state == "active"

    _drive_http(drive)


@pytest.mark.parametrize("query, status, state", [
    ("", 200, "evicted"),
    ("?mode=evict", 200, "evicted"),
    ("?mode=close", 200, "closed"),
    ("?mode=close&x=1", 200, "closed"),
    ("?mode=clsoe", 400, "active"),
    ("?mode=", 400, "active"),
    ("?mode=close&mode=evict", 400, "active"),
])
def test_end_session_honours_evict_and_close_only(query, status, state):
    async def drive(service, call):
        got, _, body = await call("DELETE", "/v1/sessions/alice" + query)
        assert got == status, body
        assert service.testbed.sessions["alice"].state == state
        if status == 200:
            assert body == {"tenant": "alice", "state": state}

    _drive_http(drive)


def test_ending_an_ended_session_is_refused():
    """A second end-session must not rewrite the first one's outcome."""
    async def main():
        service = ControlPlaneService(service_pool())
        await service.start()
        try:
            await service.open_session("alice", QUOTA)
            closed = await service.end_session("alice", mode="close")
            assert closed == {"tenant": "alice", "state": "closed"}
            with pytest.raises(ConfigurationError, match="session is closed"):
                await service.end_session("alice", mode="evict")
            assert service.testbed.sessions["alice"].state == "closed"
        finally:
            await service.stop()

    asyncio.run(main())


@pytest.mark.parametrize("method, path, payload", [
    ("POST", "/v1/sessions/alice/undeploy", {"name": "alice-a"}),
    ("GET", "/v1/status", None),
], ids=["undeploy", "status"])
def test_healthz_answers_while_an_operation_holds_the_lock(
    method, path, payload
):
    """An operation holds the testbed lock for up to 1 s. A request
    that needs that lock (queueing an undeploy, reading the status)
    waits for it off the event loop, so a health check sent meanwhile
    is answered at once instead of after the operation."""

    async def main():
        service = ControlPlaneService(
            service_pool(), host="127.0.0.1", port=0
        )
        await service.start()
        held, release = threading.Event(), threading.Event()

        def hold_lock():
            with service.testbed._lock:
                held.set()
                release.wait(1.0)

        def call(method, path, payload=None):
            return http_call(
                "127.0.0.1", service.bound_port, method, path, payload
            )

        def probe():
            # timed from a client thread: the loop may be the one stalled
            answered = []
            sender = threading.Thread(
                target=lambda: answered.append(call(method, path, payload))
            )
            sender.start()
            time.sleep(0.2)  # the request reaches its handler
            t0 = time.perf_counter()
            health = call("GET", "/v1/healthz")
            waited = time.perf_counter() - t0
            release.set()
            sender.join(10)
            return health, waited, answered

        try:
            await service.open_session("alice", QUOTA)
            await service.submit("deploy", "alice", config=CONFIGS["alice"][0])
            holder = service.scheduler.submit(
                Operation(kind="hold", tenant_id="holder", fn=hold_lock)
            )
            assert await asyncio.to_thread(held.wait, 5)
            (status, _, body), waited, answered = await asyncio.to_thread(probe)
            await holder
            assert status == 200 and body["ok"]
            assert waited < 0.4, f"healthz waited {waited:.2f}s"
            assert [got[0] for got in answered] == [200]
        finally:
            release.set()
            await service.stop()

    asyncio.run(main())
