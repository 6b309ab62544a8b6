"""ControlPlaneService regressions: status must describe the dispatcher
that actually runs the operations, and a malformed quota is the
client's error (400), not the server's (500)."""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro.service.app import ControlPlaneService
from repro.service.http import http_call
from repro.tenancy.scheduler import Operation

from tests.service.servicetools import service_pool


def test_status_reports_the_live_per_tenant_queues():
    async def main():
        service = ControlPlaneService(service_pool(), workers=1)
        await service.start()
        try:
            # one dispatcher: the front admits to the testbed's scheduler
            assert service.scheduler.core is service.testbed.scheduler
            gate = threading.Event()
            parked = [
                service.scheduler.submit(Operation(
                    kind="filler", tenant_id="a",
                    fn=lambda: gate.wait(10), footprint=None,
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
            service_pool(), workers=1, host="127.0.0.1", port=0
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
