"""Acceptance: three tenants deploy/reconfigure/undeploy concurrently
under randomized (seeded) interleavings; afterwards the pool must show
cookie-disjoint flow tables, disjoint host-port ownership, and a data
plane that delivers each tenant's traffic only between its own hosts.
"""

from __future__ import annotations

import pytest

from repro.openflow import PacketHeader
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.util.errors import AdmissionError
from tests.core.test_isolation import walk
from tests.proptools import prop_cases, seeded_cases
from tests.tenancy.conftest import (
    CHAIN4,
    CHAIN6,
    FATTREE,
    MESH22,
    SPEC,
    TORUS,
    run_op,
    submit,
)

ROOT_SEED = 20260806
NUM_CASES = prop_cases(5)

#: per tenant: (primary shape, alternate shape) it flips between
TENANT_SHAPES = {
    "alice": (FATTREE, FATTREE),  # alice redeploys the same fabric
    "bob": (TORUS, CHAIN6),
    "carol": (CHAIN4, MESH22),
}
QUOTAS = {
    "alice": TenantQuota(host_ports=24, tcam_share=2500),
    "bob": TenantQuota(host_ports=12, tcam_share=2500),
    "carol": TenantQuota(host_ports=9, tcam_share=2500),
}


def _fresh_service() -> TestbedService:
    pool = build_pool_for_tenants(
        [FATTREE.build(), TORUS.build(), CHAIN6.build(), CHAIN4.build()],
        3,
        SPEC,
        spare_hosts=8,
    )
    svc = TestbedService(pool)
    for tenant, quota in QUOTAS.items():
        svc.open_session(tenant, quota)
    return svc


def _assert_isolated(svc: TestbedService, case: int) -> None:
    sessions = [
        s for s in svc.sessions.values() if s.state == "active"
    ]
    # the verifier itself (cookies, on-switch attribution, wiring, lease)
    report = svc.verifier.verify(sessions, strict=False)
    assert report.ok, f"case {case}: {report.problems}"
    # belt and braces: recompute disjointness from first principles
    cookie_sets = [s.cookies for s in sessions]
    for i, a in enumerate(cookie_sets):
        for b in cookie_sets[i + 1:]:
            assert not a & b, f"case {case}: shared cookies {a & b}"
    port_sets = []
    for s in sessions:
        ports = {
            r
            for d in s.deployments.values()
            for r in d.projection.link_realization.values()
        }
        port_sets.append(ports)
    for i, a in enumerate(port_sets):
        for b in port_sets[i + 1:]:
            assert not a & b, f"case {case}: shared resources {a & b}"
    # every installed entry's cookie belongs to exactly one tenant or
    # to no tenant namespace at all
    for name, sw in svc.cluster.switches.items():
        for cookie in sw.occupancy_by_cookie():
            owners = [s for s in sessions if s.owns_cookie(cookie)]
            assert len(owners) <= 1, f"case {case}: {name} cookie {cookie}"
            if owners:
                assert cookie in owners[0].cookies, (
                    f"case {case}: {name} holds stale cookie {cookie}"
                )


def _assert_data_plane_isolated(svc: TestbedService, case: int) -> None:
    """Each live deployment delivers internally to its own leased host;
    traffic addressed across tenants is never delivered to the foreign
    host."""
    live = [
        (s, d)
        for s in svc.sessions.values()
        if s.state == "active"
        for d in s.deployments.values()
    ]
    for session, dep in live:
        hosts = dep.topology.hosts
        if len(hosts) < 2:
            continue
        src, dst = hosts[0], hosts[-1]
        delivered = walk(svc.cluster, dep, src, dst)
        assert delivered == dep.projection.host_map[dst], (
            f"case {case}: {session.tenant_id} cannot reach its own host"
        )
        assert delivered in session.leased_hosts, (
            f"case {case}: delivery landed outside "
            f"{session.tenant_id}'s lease"
        )
    for (sa, da), (sb, db) in zip(live, live[1:]):
        if sa.tenant_id == sb.tenant_id:
            continue
        src_a = da.projection.host_map[da.topology.hosts[0]]
        dst_b = db.projection.host_map[db.topology.hosts[-1]]
        got = walk(
            svc.cluster,
            da,
            da.topology.hosts[0],
            da.topology.hosts[-1],
            header=PacketHeader(src=src_a, dst=dst_b),
        )
        assert got != dst_b, (
            f"case {case}: packet from {sa.tenant_id} delivered to "
            f"{sb.tenant_id}'s host {dst_b}"
        )


def test_concurrent_tenants_randomized_interleavings():
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "mt"):
        svc = _fresh_service()
        try:
            # phase 1: all tenants deploy their primary shape at once
            futures = [
                submit(svc, "deploy", t, config=TENANT_SHAPES[t][0])
                for t in sorted(TENANT_SHAPES, key=lambda _: rng.random())
            ]
            for f in futures:
                f.result(30)
            _assert_isolated(svc, case)

            # phase 2: a randomized burst of reconfigures/undeploys/
            # redeploys, submitted without waiting (per-tenant FIFO
            # keeps each tenant's chain coherent; the scheduler orders
            # conflicting transactions)
            expected = {t: TENANT_SHAPES[t][0] for t in TENANT_SHAPES}
            burst = []
            for _ in range(int(rng.integers(2, 6))):
                tenant = str(rng.choice(sorted(TENANT_SHAPES)))
                current = expected[tenant]
                flip = (
                    TENANT_SHAPES[tenant][1]
                    if current is TENANT_SHAPES[tenant][0]
                    else TENANT_SHAPES[tenant][0]
                )
                if rng.random() < 0.6 and flip is not current:
                    burst.append(
                        submit(
                            svc, "reconfigure", tenant,
                            name=current.build().name, config=flip,
                        )
                    )
                    expected[tenant] = flip
                else:
                    burst.append(
                        submit(svc, "undeploy", tenant, name=current.build().name)
                    )
                    burst.append(submit(svc, "deploy", tenant, config=flip))
                    expected[tenant] = flip
            for f in burst:
                try:
                    f.result(30)
                except AdmissionError:
                    pass  # pool contention is a legal outcome
            assert svc.scheduler.drain(30)
            _assert_isolated(svc, case)
            _assert_data_plane_isolated(svc, case)
        finally:
            svc.shutdown()


def test_over_quota_mid_run_rejects_bit_identical():
    svc = _fresh_service()
    try:
        run_op(svc, "deploy", "alice", config=FATTREE)
        run_op(svc, "deploy", "bob", config=TORUS)
        before = {
            n: sw.entry_keys() for n, sw in svc.cluster.switches.items()
        }
        with pytest.raises(AdmissionError):
            run_op(svc, "deploy", "carol", config=FATTREE)  # 16 hosts > 9-port quota
        after = {
            n: sw.entry_keys() for n, sw in svc.cluster.switches.items()
        }
        assert before == after
        _assert_isolated(svc, -1)
    finally:
        svc.shutdown()


def test_evict_reclaims_and_readmit_gets_fresh_namespace():
    svc = _fresh_service()
    try:
        dep = run_op(svc, "deploy", "bob", config=TORUS)
        old_base = svc.sessions["bob"].cookie_base
        bob_switches = set(dep.rules.per_switch_counts())
        run_op(svc, "evict", "bob")
        assert svc.sessions["bob"].state == "evicted"
        for name in bob_switches:
            assert old_base not in {
                c
                for c in svc.cluster.switches[name].occupancy_by_cookie()
            }
        # the freed lease is reusable immediately
        again = svc.open_session("bob", QUOTAS["bob"])
        assert again.cookie_base != old_base  # fresh namespace, no reuse
        dep2 = run_op(svc, "deploy", "bob", config=TORUS)
        assert dep2.cookie == again.cookie_base
        _assert_isolated(svc, -2)
    finally:
        svc.shutdown()
