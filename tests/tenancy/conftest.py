"""Shared multi-tenant fixtures: a pool sized for three tenants, and
the one way tests drive tenant work — an operation built by
``make_operation`` and run through the service's own scheduler."""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.core.controller.config import TopologyConfig
from repro.hardware.spec import SwitchSpec
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.util.units import gbps

SPEC = SwitchSpec(
    model="pool-switch",
    num_ports=256,
    port_rate=gbps(10),
    flow_table_capacity=4096,
)


def submit(service: TestbedService, kind: str, tenant_id: str, **kwargs) -> Future:
    """Queue one tenant operation; resolves to its result."""
    return service.scheduler.submit(
        service.make_operation(kind, tenant_id, **kwargs)
    )


def run_op(service: TestbedService, kind: str, tenant_id: str, **kwargs):
    """Run one tenant operation to completion and return its result."""
    return submit(service, kind, tenant_id, **kwargs).result()


#: each tenant's primary topology and the shape it reconfigures to
FATTREE = TopologyConfig("fat-tree", {"k": 4})
TORUS = TopologyConfig("torus2d", {"x": 3, "y": 3, "hosts_per_switch": 1})
CHAIN6 = TopologyConfig("chain", {"num_switches": 6, "hosts_per_switch": 1})
CHAIN4 = TopologyConfig("chain", {"num_switches": 4, "hosts_per_switch": 1})
MESH22 = TopologyConfig("mesh2d", {"x": 2, "y": 2, "hosts_per_switch": 1})


@pytest.fixture()
def pool():
    """Three switches wired to hold all three tenants' topologies at
    once (summed demand, plus slack for make-before-break swaps)."""
    return build_pool_for_tenants(
        [FATTREE.build(), TORUS.build(), CHAIN6.build()],
        3,
        SPEC,
        spare_hosts=8,
    )


@pytest.fixture()
def service(pool):
    svc = TestbedService(pool)
    yield svc
    svc.shutdown()


@pytest.fixture()
def three_tenants(service):
    """alice/bob/carol admitted with leases sized for their topologies."""
    alice = service.open_session(
        "alice", TenantQuota(host_ports=24, tcam_share=2500)
    )
    bob = service.open_session(
        "bob", TenantQuota(host_ports=12, tcam_share=2500)
    )
    carol = service.open_session(
        "carol", TenantQuota(host_ports=9, tcam_share=2500)
    )
    return alice, bob, carol
