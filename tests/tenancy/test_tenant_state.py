"""What a tenant session leaves behind, and what a tenant request
builds.

A long-running service serves sessions without end. Once the sessions
it served are over, what it holds for them must be gone: the tenant
operation and admission counters keep one series per operation kind
(status, decision), not one per tenant ever served, an ended tenant's
per-switch entry gauges go with it, and no switch keeps an instruction of
a generation it deleted outside its flow tables. A tenant deploy or
edit builds the requested topology once: admission reads the topology
the controller builds, and still rejects an over-quota request for its
quota first.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core.controller.config import TopologyConfig
from repro.openflow.actions import WriteMetadata
from repro.telemetry import metrics
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.util.errors import AdmissionError, ConfigurationError
from tests.tenancy.conftest import SPEC, run_op

SESSIONS = 300


def _chain(switches: int) -> TopologyConfig:
    return TopologyConfig("chain", {"num_switches": switches, "hosts_per_switch": 1})


def _service() -> TestbedService:
    pool = build_pool_for_tenants(
        [_chain(6).build(), _chain(3).build(), _chain(4).build()],
        3, SPEC, spare_hosts=16,
    )
    return TestbedService(pool)


def _label_sets(name: str) -> int:
    counter = metrics.registry().get(name)
    return 0 if counter is None else len(list(counter.series()))


def _held_instructions(value, seen: set[int]) -> int:
    """Instruction tuples carrying a metadata tag inside ``value``'s
    containers (each container walked once)."""
    if id(value) in seen or not isinstance(value, (dict, list, set, tuple)):
        return 0
    seen.add(id(value))
    items = (
        [*value.keys(), *value.values()] if isinstance(value, dict) else value
    )
    held = isinstance(value, tuple) and any(
        isinstance(item, WriteMetadata) for item in value
    )
    return held + sum(_held_instructions(item, seen) for item in items)


def _switch_state(service: TestbedService) -> dict[str, int]:
    """Per switch, the tagged instruction tuples it holds outside its
    flow tables."""
    return {
        name: _held_instructions(
            [v for k, v in vars(sw).items() if k != "tables"], set()
        )
        for name, sw in service.cluster.switches.items()
    }


def _churn(probe):
    """``probe(service)`` after warm-up sessions that see every
    operation kind, and again after :data:`SESSIONS` more sessions (a
    resident tenant stays throughout)."""
    service = _service()
    try:
        service.open_session("resident", TenantQuota(host_ports=8, tcam_share=2000))
        run_op(service, "deploy", "resident", config=_chain(6))

        def session(i: int) -> None:
            tenant = f"churn-{i}"
            service.open_session(tenant, TenantQuota(host_ports=8, tcam_share=2000))
            deployment = run_op(service, "deploy", tenant, config=_chain(3))
            if i % 2:
                run_op(
                    service, "reconfigure", tenant,
                    name=deployment.name, config=_chain(4),
                )
            run_op(service, "evict" if i % 3 else "close", tenant)

        for i in range(6):
            session(i)
        before = probe(service)
        for i in range(6, 6 + SESSIONS):
            session(i)
        return before, probe(service)
    finally:
        service.shutdown()


def test_churned_sessions_leave_no_operation_counter_series():
    counters = (
        "tenant_ops_submitted_total", "tenant_ops_finished_total",
        "tenant_admission_total", "tenant_tcam_entries",
    )
    before, after = _churn(lambda _s: {name: _label_sets(name) for name in counters})
    assert after == before


def test_churned_sessions_leave_no_instruction_on_the_switches():
    before, after = _churn(_switch_state)
    assert after == before


def _links_built() -> float:
    counter = metrics.registry().get("sdt_topology_links_built_total")
    return 0.0 if counter is None else counter.value()


def test_a_tenant_deploy_and_edit_each_build_once():
    service = _service()
    try:
        service.open_session("t", TenantQuota(host_ports=8, tcam_share=2000))
        chain3, chain4 = (len(_chain(n).build().links) for n in (3, 4))
        before = _links_built()
        deployment = run_op(service, "deploy", "t", config=_chain(3))
        assert _links_built() - before == chain3

        before = _links_built()
        run_op(
            service, "reconfigure", "t", name=deployment.name, config=_chain(4)
        )
        assert _links_built() - before == chain4
    finally:
        service.shutdown()


def test_the_host_port_quota_goes_before_other_refusals():
    """An over-quota request is rejected for the quota, touching
    nothing, although its preparation fails for another reason (an
    unknown routing name); within the quota that reason surfaces."""
    service = _service()
    try:
        service.open_session("t", TenantQuota(host_ports=4, tcam_share=2000))
        tables = lambda: {n: sw.entry_keys() for n, sw in service.cluster.switches.items()}
        bad = lambda n: replace(_chain(n), routing="no-such-routing")
        before = tables()
        with pytest.raises(AdmissionError, match="host ports"):
            run_op(service, "deploy", "t", config=bad(5))
        with pytest.raises(ConfigurationError, match="no-such-routing"):
            run_op(service, "deploy", "t", config=bad(3))
        assert tables() == before

        deployment = run_op(service, "deploy", "t", config=_chain(3))
        before = tables()
        with pytest.raises(AdmissionError, match="host ports"):
            run_op(service, "reconfigure", "t", name=deployment.name, config=bad(5))
        with pytest.raises(ConfigurationError, match="no-such-routing"):
            run_op(service, "reconfigure", "t", name=deployment.name, config=bad(4))
        assert tables() == before
    finally:
        service.shutdown()
