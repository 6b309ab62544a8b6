"""The isolation verifier's ownership index proves what the full walk
proves.

After every commit :class:`~repro.tenancy.isolation.IsolationVerifier`
re-proves cross-tenant disjointness. It reads maintained per-cookie
counts off the flow tables and keeps an ownership index over the live
projections (keyed by projection object: an incremental edit swaps
``Deployment.projection`` in place), and walks the wiring only to word
a violation. This suite keeps the full walk — every stored entry, every
pending part, every projection's cables and hosts — as its oracle:

* seeded tenant churn through :class:`TestbedService`, incremental
  edits included: after each commit the service's own report
  (``problems`` and ``tenant_entries``) equals the oracle's, and after
  the churn the index holds only the residents' projections;
* violation mutants — a cable claimed across tenants (also through an
  edited projection), a host port outside the lease, a physical host
  bound by two tenants — give exactly the oracle's problems and
  ``IsolationError`` text, and the index recovers once they are undone;
* a tenant's ``tenant_tcam_entries`` series go with the entries they
  counted, not only with the session.

Cases are seeded (reproduce with the printed case index); counts scale
with ``SDT_PROP_CASES`` for CI's stress job.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import replace

import pytest

from repro.core.controller.config import TopologyConfig
from repro.hardware.wiring import HostPort
from repro.telemetry import metrics
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.tenancy.isolation import IsolationReport
from repro.tenancy.session import SESSION_ACTIVE
from repro.util.errors import AdmissionError, ConfigurationError, IsolationError
from tests.proptools import prop_cases, seeded_cases
from tests.tenancy.conftest import SPEC, run_op

ROOT_SEED = 20261019
NUM_CASES = prop_cases(10)
STEPS = 30
QUOTA = TenantQuota(host_ports=10, tcam_share=2500)
RESIDENTS = ("r0",)
CHURNERS = ("t0", "t1", "t2")


# --- the oracle: the full walk -----------------------------------------------

def _walked_occupancy(switch) -> Counter:
    counts: Counter = Counter()
    for table in switch.tables:
        counts.update(e.cookie for e in table._store.values())
        for _serial, rows, cookie, _build in table._pending:
            counts[cookie] += rows
    return counts


def _oracle(cluster, sessions) -> IsolationReport:
    """Every check by walking the pool: every entry on every switch,
    every cable and host of every live projection."""
    report = IsolationReport()
    owner: dict[int, str] = {}
    for s in sessions:
        for cookie in s.cookies:
            if cookie in owner:
                report.problems.append(
                    f"cookie {cookie} claimed by tenants "
                    f"{owner[cookie]!r} and {s.tenant_id!r}"
                )
            owner[cookie] = s.tenant_id
            if not s.owns_cookie(cookie):
                report.problems.append(
                    f"tenant {s.tenant_id!r} deployment cookie {cookie} "
                    f"is outside its namespace "
                    f"[{s.cookie_base}, {s.cookie_base + (1 << 20)})"
                )
    live = {c: s for s in sessions for c in s.cookies}
    for s in sessions:
        report.tenant_entries[s.tenant_id] = {}
    for name, sw in cluster.switches.items():
        for cookie, count in _walked_occupancy(sw).items():
            session = live.get(cookie)
            if session is None:
                for s in sessions:
                    if s.owns_cookie(cookie):
                        report.problems.append(
                            f"{name}: {count} entries carry cookie "
                            f"{cookie} from tenant {s.tenant_id!r}'s "
                            "namespace but no live deployment owns it"
                        )
                continue
            per_switch = report.tenant_entries[session.tenant_id]
            per_switch[name] = per_switch.get(name, 0) + count
    for s in sessions:
        for name, count in sorted(report.tenant_entries[s.tenant_id].items()):
            if count > s.quota.tcam_share:
                report.problems.append(
                    f"{name}: tenant {s.tenant_id!r} holds {count} "
                    f"entries, over its {s.quota.tcam_share}-entry share"
                )
    resource_owner: dict = {}
    host_owner: dict[str, str] = {}
    for s in sessions:
        for d in s.deployments.values():
            for r in d.projection.link_realization.values():
                prev = resource_owner.get(r)
                if prev is not None and prev != s.tenant_id:
                    report.problems.append(
                        f"resource {r} owned by tenants {prev!r} "
                        f"and {s.tenant_id!r}"
                    )
                resource_owner[r] = s.tenant_id
                if isinstance(r, HostPort) and r not in s.lease:
                    report.problems.append(
                        f"tenant {s.tenant_id!r} bound host port {r} "
                        "outside its lease"
                    )
            for phys in d.projection.host_map.values():
                prev = host_owner.get(phys)
                if prev is not None and prev != s.tenant_id:
                    report.problems.append(
                        f"physical host {phys!r} bound by tenants "
                        f"{prev!r} and {s.tenant_id!r}"
                    )
                host_owner[phys] = s.tenant_id
    return report


def _same(report: IsolationReport, oracle: IsolationReport, where) -> None:
    assert report.problems == oracle.problems, where
    assert report.tenant_entries == oracle.tenant_entries, where


# --- rig -----------------------------------------------------------------------

def _chain(n: int) -> TopologyConfig:
    return TopologyConfig("chain", {"num_switches": n, "hosts_per_switch": 1})


def _custom(name: str, n: int) -> TopologyConfig:
    """A chain of ``n`` switches, one host each, as a custom config: an
    edit between two of them keeps the live link order, so it runs
    incrementally and swaps the deployment's projection in place."""
    switches = [f"s{i}" for i in range(n)]
    hosts = {f"h{i}": f"s{i}" for i in range(n)}
    return TopologyConfig("custom", {
        "name": name,
        "switches": switches,
        "hosts": list(hosts),
        "links": [list(p) for p in zip(switches, switches[1:])]
        + [[h, s] for h, s in hosts.items()],
    })


def _service() -> TestbedService:
    pool = build_pool_for_tenants(
        [_chain(6).build() for _ in range(4)], 3, SPEC, spare_hosts=24
    )
    return TestbedService(pool)


def _recording(service: TestbedService) -> list:
    """Record (service report, oracle report) for every verify the
    service runs; the oracle walks the same state right after."""
    verifier = service.verifier
    verify = verifier.verify
    pairs: list = []

    def recorded(sessions, *, strict=True):
        sessions = list(sessions)
        report = verify(sessions, strict=strict)
        pairs.append((report, _oracle(service.cluster, sessions)))
        return report

    verifier.verify = recorded
    return pairs


def _claimed(service: TestbedService) -> set[tuple[int, int]]:
    """The index keys the live projections of the active sessions give."""
    return {
        (id(s), id(d.projection))
        for s in service.sessions.values()
        if s.state == SESSION_ACTIVE
        for d in s.deployments.values()
    }


def _churn_step(rng, service: TestbedService) -> str:
    tenant = CHURNERS[int(rng.integers(len(CHURNERS)))]
    session = service.sessions.get(tenant)
    if session is None or session.state != SESSION_ACTIVE:
        service.open_session(tenant, QUOTA)
        return "open"
    names = sorted(session.deployments)
    op = rng.random()
    if op < 0.35 or not names:
        n = int(rng.integers(2, 5))
        name = f"{tenant}-c{int(rng.integers(3))}"
        config = _custom(name, n) if rng.random() < 0.6 else _chain(n)
        run_op(service, "deploy", tenant, config=config)
        return "deploy"
    name = names[int(rng.integers(len(names)))]
    if op < 0.75:
        old = session.deployments[name]
        n = len(old.topology.switches) + int(rng.choice([-1, 1]))
        n = min(max(n, 2), 5)
        if old.config.kind == "custom":
            config = _custom(name, n)
        else:
            config = _chain(n)
        live = (id(old), id(old.projection))
        new = run_op(service, "reconfigure", tenant, name=name, config=config)
        if id(new) == live[0] and id(new.projection) != live[1]:
            return "edit-in-place"
        return "reconfigure"
    if op < 0.9:
        run_op(service, "undeploy", tenant, name=name)
        return "undeploy"
    run_op(service, "evict", tenant)
    return "evict"


# --- churn: the index reports what the walk reports ------------------------------

def test_every_commit_reports_what_the_full_walk_reports():
    seen: Counter = Counter()
    for case, rng in seeded_cases(NUM_CASES, ROOT_SEED, "churn"):
        service = _service()
        try:
            pairs = _recording(service)
            for tenant in RESIDENTS:
                service.open_session(tenant, QUOTA)
                run_op(service, "deploy", tenant, config=_custom("res", 4))
            for step in range(STEPS):
                before = len(pairs)
                try:
                    kind = _churn_step(rng, service)
                except (AdmissionError, ConfigurationError):
                    kind = "refused"
                seen[kind] += 1
                assert len(pairs) > before or kind in ("refused", "open"), (
                    case, step, kind,
                )
                for report, oracle in pairs[before:]:
                    _same(report, oracle, (case, step, kind))
                assert set(service.verifier._claims) == _claimed(service), (
                    case, step, kind,
                )
            for tenant in CHURNERS:
                session = service.sessions.get(tenant)
                if session is not None and session.state == SESSION_ACTIVE:
                    run_op(service, "close", tenant)
            for report, oracle in pairs:
                assert report.ok
            # only the residents' projections are left in the index
            residents = [service.sessions[t] for t in RESIDENTS]
            assert set(service.verifier._claims) == {
                (id(s), id(d.projection))
                for s in residents
                for d in s.deployments.values()
            }, case
            owned = Counter()
            for s in residents:
                for d in s.deployments.values():
                    owned.update(d.projection.link_realization.values())
                    owned.update(
                        ("host", h) for h in d.projection.host_map.values()
                    )
            assert {
                thing: sum(per.values())
                for thing, per in service.verifier._owners.items()
            } == dict(owned), case
        finally:
            service.shutdown()
    assert seen["edit-in-place"] and seen["deploy"] and seen["evict"], seen


# --- violation mutants: the walk words them, byte for byte -------------------------

@pytest.fixture()
def two_tenants():
    service = _service()
    alice = service.open_session("alice", QUOTA)
    bob = service.open_session("bob", QUOTA)
    run_op(service, "deploy", "alice", config=_custom("a", 3))
    run_op(service, "deploy", "bob", config=_custom("b", 3))
    yield service, alice, bob
    service.shutdown()


def _expect_violation(service, sessions) -> None:
    oracle = _oracle(service.cluster, sessions)
    assert oracle.problems
    report = service.verifier.verify(sessions, strict=False)
    _same(report, oracle, "mutant")
    with pytest.raises(IsolationError) as err:
        service.verifier.verify(sessions)
    assert str(err.value) == (
        "cross-tenant isolation violated: " + "; ".join(oracle.problems)
    )


def _swap(deployment, **changes):
    """Swap a live deployment's projection for an edited copy, as an
    incremental edit does; returns the original."""
    original = deployment.projection
    deployment.projection = replace(original, **changes)
    return original


def _host_ports(projection) -> list[tuple[int, HostPort]]:
    return [
        (i, r) for i, r in projection.link_realization.items()
        if isinstance(r, HostPort)
    ]


@pytest.mark.parametrize("edited", [False, True])
def test_a_cable_claimed_across_tenants(two_tenants, edited):
    service, alice, bob = two_tenants
    if edited:  # bob's projection is already one an edit swapped in
        run_op(service, "reconfigure", "bob", name="b", config=_custom("b", 4))
    sessions = [alice, bob]
    a_cable = next(
        r for r in alice.deployments["a"].projection.link_realization.values()
        if not isinstance(r, HostPort)
    )
    bob_dep = bob.deployments["b"]
    i = next(
        i for i, r in bob_dep.projection.link_realization.items()
        if type(r) is type(a_cable)
    )
    original = _swap(bob_dep, link_realization={
        **bob_dep.projection.link_realization, i: a_cable,
    })
    _expect_violation(service, sessions)
    bob_dep.projection = original
    assert service.verifier.verify(sessions).ok


def test_a_host_port_outside_the_lease(two_tenants):
    service, alice, bob = two_tenants
    sessions = [alice, bob]
    leased = {hp for s in sessions for hp in s.lease}
    outside = next(
        hp for hp in service.cluster.wiring.host_ports if hp not in leased
    )
    dep = bob.deployments["b"]
    [(i, _), *_] = _host_ports(dep.projection)
    original = _swap(dep, link_realization={
        **dep.projection.link_realization, i: outside,
    })
    _expect_violation(service, sessions)
    dep.projection = original
    assert service.verifier.verify(sessions).ok


def test_a_lease_that_no_longer_covers_a_bound_port(two_tenants):
    """A projection is indexed against the lease it was checked with:
    a session given another lease is checked again."""
    service, alice, bob = two_tenants
    sessions = [alice, bob]
    lease = bob.lease
    [(_, bound), *_] = _host_ports(bob.deployments["b"].projection)
    bob.lease = tuple(hp for hp in lease if hp != bound)
    _expect_violation(service, sessions)
    bob.lease = lease
    assert service.verifier.verify(sessions).ok


def test_a_physical_host_bound_by_two_tenants(two_tenants):
    service, alice, bob = two_tenants
    sessions = [alice, bob]
    taken = next(iter(alice.deployments["a"].projection.host_map.values()))
    dep = bob.deployments["b"]
    host = next(iter(dep.projection.host_map))
    original = _swap(dep, host_map={**dep.projection.host_map, host: taken})
    _expect_violation(service, sessions)
    dep.projection = original
    assert service.verifier.verify(sessions).ok


# --- the per-switch entry gauges follow the entries --------------------------------

def _tcam_series(tenant: str) -> dict[str, float]:
    gauge = metrics.registry().gauge("tenant_tcam_entries")
    return {
        labels["switch"]: value
        for labels, value in gauge.series()
        if labels["tenant"] == tenant
    }


def test_an_undeploy_removes_the_tenant_series_it_emptied():
    service = _service()
    try:
        service.open_session("alice", QUOTA)
        dep = run_op(service, "deploy", "alice", config=_chain(4))
        switches = set(dep.rules.per_switch_counts())
        assert len(switches) > 1
        assert set(_tcam_series("alice")) == switches
        run_op(service, "deploy", "alice", config=_chain(2))
        held = service.sessions["alice"].deployments["chain-2"]
        run_op(service, "undeploy", "alice", name="chain-4")
        # only the switches chain-2 still holds entries on keep a series
        assert _tcam_series("alice") == {
            sw: float(n) for sw, n in held.rules.per_switch_counts().items()
        }
        run_op(service, "undeploy", "alice", name="chain-2")
        assert _tcam_series("alice") == {}
    finally:
        service.shutdown()
