"""A tenant ``reconfigure`` is the controller's one per-deployment edit.

Through :class:`TestbedService` an edit reaches
``SDTController.edit`` with the tenant's host-port lease as its
``lease`` and admission vetting each staged transaction before it commits. So the
edit is incremental whenever the direct ``reconfigure`` would be, pushes
the same rules, and a refusal still touches no switch.
"""

from __future__ import annotations

import pytest

from repro.core import SDTController, TopologyConfig
from repro.core.controller.controller import BREAK_BEFORE_MAKE, MAKE_BEFORE_BREAK
from repro.core.rules import synthesize_rules
from repro.hardware import EVAL_256x10G
from repro.telemetry import metrics
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.topology import fat_tree
from repro.topology.diff import rebuild, removable_switch_links
from repro.util.errors import AdmissionError, ConfigurationError
from tests.core.test_incremental import ROOT_SEED, _mod_key, _rules_multiset
from tests.proptools import prop_cases, random_topology, seeded_cases
from tests.tenancy.conftest import CHAIN4, SPEC, run_op
from tests.tenancy.test_admission import _tables

CHAIN3 = TopologyConfig("chain", {"num_switches": 3, "hosts_per_switch": 1})
CHAIN6 = TopologyConfig("chain", {"num_switches": 6, "hosts_per_switch": 1})


def _counter(name: str, **labels) -> float:
    inst = metrics.registry().get(name)
    return inst.value(**labels) if inst is not None else 0.0


def _books(service: TestbedService) -> list[tuple]:
    """What a refused edit must leave alone in the controller."""
    return [
        (id(d), d.name, d.cookie, id(d.rules), id(d.projection))
        for d in service.controller.deployments
    ]


def _custom(name: str, switches: list[str], hosts: dict[str, str]) -> TopologyConfig:
    """A chain over ``switches`` with ``hosts`` (host -> switch)."""
    return TopologyConfig("custom", {
        "name": name,
        "switches": switches,
        "hosts": list(hosts),
        "links": [list(pair) for pair in zip(switches, switches[1:])]
        + [[h, s] for h, s in hosts.items()],
    })


# --- satellite bug: an edit onto a name the tenant already deploys -----------

def test_edit_onto_a_name_the_tenant_deploys_is_refused(service):
    """The edit used to commit, then the session's dict overwrote one
    deployment: the post-commit verifier raised ``IsolationError`` and
    an evict left the lost generation's entries on the switches."""
    session = service.open_session(
        "alice", TenantQuota(host_ports=16, tcam_share=2000)
    )
    chain3 = run_op(service, "deploy", "alice", config=CHAIN3)
    run_op(service, "deploy", "alice", config=CHAIN4)
    before, books = _tables(service.cluster), _books(service)
    with pytest.raises(ConfigurationError, match="already deploys 'chain-4'"):
        run_op(service, "reconfigure", "alice", name=chain3.name, config=CHAIN4)
    assert _tables(service.cluster) == before
    assert _books(service) == books
    assert sorted(session.deployments) == ["chain-3", "chain-4"]

    run_op(service, "evict", "alice")
    assert service.controller.deployments == []
    assert all(sw.num_entries == 0 for sw in service.cluster.switches.values())


# --- refused edits touch nothing ---------------------------------------------

@pytest.fixture()
def tenant(service):
    """A tenant on the 3-switch pool: a 9-port lease, 3 ports per
    switch, holding chain-4 (13/7/6 entries)."""
    session = service.open_session(
        "t", TenantQuota(host_ports=9, tcam_share=13)
    )
    deployment = run_op(service, "deploy", "t", config=CHAIN4)
    return session, deployment


@pytest.mark.parametrize(
    "config, problem",
    [
        # chain-6 would hold more than 13 entries on some switch
        (CHAIN6, "quota is 13 per switch"),
        # 10 hosts on a 9-port quota
        (TopologyConfig("chain", {"num_switches": 5, "hosts_per_switch": 2}),
         "needs 10 host ports"),
        # s0 grows to 4 hosts: the lease has 3 ports per switch, so the
        # added hosts fit only on ports outside it
        (_custom("chain-4", ["s0", "s1", "s2", "s3"], {
            "h0": "s0", "h1": "s1", "h2": "s2", "h3": "s3",
            "h4": "s0", "h5": "s0", "h6": "s0",
        }), "host"),
    ],
    ids=["tcam-share", "host-quota", "outside-lease"],
)
def test_refused_edit_is_bit_identical(service, tenant, config, problem):
    session, deployment = tenant
    before, books = _tables(service.cluster), _books(service)
    rejected = _counter(
        "tenant_admission_total", decision="rejected"
    )
    with pytest.raises(AdmissionError, match=problem) as refusal:
        run_op(service, "reconfigure", "t", name=deployment.name, config=config)
    assert refusal.value.problems
    assert _tables(service.cluster) == before
    assert _books(service) == books
    assert session.deployments == {deployment.name: deployment}
    assert _counter(
        "tenant_admission_total", decision="rejected"
    ) == rejected + 1


# --- a transient peak over the share falls back to break-before-make ---------

def _one_switch_edit(share: int):
    """Edit chain-3 (16 entries on a one-switch pool) into a chain-3
    under fresh node names, which shares no entry with it: its delta and
    a make-before-break swap both peak at 32 entries."""
    pool = build_pool_for_tenants(
        [CHAIN3.build(), CHAIN3.build()], 1, SPEC, spare_hosts=2
    )
    service = TestbedService(pool)
    try:
        service.open_session("t", TenantQuota(host_ports=3, tcam_share=share))
        old = run_op(service, "deploy", "t", config=CHAIN3)
        assert pool.switches["phys0"].num_entries == 16
        fresh = _custom(
            "chain-3", ["t0", "t1", "t2"], {"g0": "t0", "g1": "t1", "g2": "t2"}
        )
        new = run_op(service, "reconfigure", "t", name=old.name, config=fresh)
        assert pool.switches["phys0"].num_entries == 16
        assert service.controller.deployments == [new]
        return old, new, service.controller.last_commit_strategy
    finally:
        service.shutdown()


def test_edit_over_the_share_only_transiently_commits_break_first():
    """A 16-entry share refuses the delta and make-before-break alike;
    the edit commits as a break-before-make generation swap."""
    old, new, strategy = _one_switch_edit(16)
    assert strategy == BREAK_BEFORE_MAKE
    assert new.cookie != old.cookie


def test_edit_within_the_share_at_its_peak_stays_incremental():
    incremental = _counter(
        "sdt_controller_reconfigure_mode_total", mode="incremental"
    )
    old, new, strategy = _one_switch_edit(32)
    assert strategy == MAKE_BEFORE_BREAK
    assert new is old  # edited in place, same cookie
    assert _counter(
        "sdt_controller_reconfigure_mode_total", mode="incremental"
    ) == incremental + 1


# --- one path: the tenant edit is the direct edit ----------------------------

def test_fat_tree_k8_tenant_edit_pushes_what_the_direct_edit_pushes():
    """Dropping and restoring one link of a fat-tree k=8: through the
    service the edit is incremental, keeps its cookie, and pushes
    exactly the direct ``reconfigure``'s messages."""
    topo = fat_tree(8)
    edited = rebuild(topo, drop_links={removable_switch_links(topo)[0]})
    edits = [TopologyConfig.from_topology(t) for t in (edited, topo)]
    pushed = {}
    for path in ("direct", "tenant"):
        pool = build_pool_for_tenants([topo], 4, EVAL_256x10G, spare_hosts=16)
        if path == "direct":
            controller = SDTController(pool, placement="occupancy")
            deployment = controller.deploy(TopologyConfig.from_topology(topo))

            def edit(config):
                return controller.reconfigure(config)[0]
        else:
            service = TestbedService(pool)
            service.open_session("t", TenantQuota(
                host_ports=len(pool.wiring.host_ports),
                tcam_share=EVAL_256x10G.flow_table_capacity,
            ))
            deployment = run_op(
                service, "deploy", "t", config=TopologyConfig.from_topology(topo)
            )

            def edit(config):
                return run_op(
                    service, "reconfigure", "t", name=deployment.name, config=config
                )
        cookie = deployment.cookie
        pushed[path] = []
        for config in edits:
            incremental = _counter(
                "sdt_controller_reconfigure_mode_total", mode="incremental"
            )
            before = _counter("sdt_reconfig_rules_pushed_total")
            assert edit(config) is deployment
            assert deployment.cookie == cookie
            assert _counter(
                "sdt_controller_reconfigure_mode_total", mode="incremental"
            ) == incremental + 1
            pushed[path].append(_counter("sdt_reconfig_rules_pushed_total") - before)
        if path == "tenant":
            service.shutdown()
    assert pushed["tenant"] == pushed["direct"]
    assert 0 < max(pushed["direct"]) < 1000


def _live_by_cookie(cluster) -> dict[int, dict[str, list[tuple]]]:
    out: dict[int, dict[str, list[tuple]]] = {}
    for name, sw in cluster.switches.items():
        for tid, entries in enumerate(sw.snapshot().tables):
            for e in entries:
                out.setdefault(e.cookie, {}).setdefault(name, []).append(
                    _mod_key(tid, e.priority, e.cookie, e.match, e.instructions)
                )
    for per_switch in out.values():
        for keys in per_switch.values():
            keys.sort()
    return out


def test_tenant_edit_sequences_match_from_scratch_on_a_shared_pool():
    """Three tenants with random topologies share a pool; random link
    drops and re-adds go through the service. After every commit the
    edited tenant's entries equal a from-scratch install of its rules,
    every other tenant's entries are unchanged bit for bit, and the
    isolation verifier is clean. A refused edit changes nothing."""
    cases = prop_cases(100)
    incremental_runs = 0
    for idx, rng in seeded_cases(cases, ROOT_SEED, "tenant-edit-sequences"):
        fulls = [
            random_topology(
                rng, min_switches=3, max_switches=6, max_extra_links=4,
                max_hosts=3, name=f"t{t}-{idx}",
            )
            for t in range(3)
        ]
        pool = build_pool_for_tenants(
            fulls, int(rng.integers(1, 4)), SPEC, spare_hosts=6
        )
        service = TestbedService(pool)
        try:
            live: dict[str, tuple] = {}  # tenant -> (topology, dropped)
            for t, full in enumerate(fulls):
                service.open_session(f"t{t}", TenantQuota(
                    host_ports=len(full.hosts) + 2, tcam_share=SPEC.flow_table_capacity
                ))
                try:
                    run_op(service, "deploy", f"t{t}",
                           config=TopologyConfig.from_topology(full))
                except AdmissionError:
                    continue  # the lease's shape cannot host this topology
                live[f"t{t}"] = (full, [])
            for _ in range(int(rng.integers(1, 5))):
                if not live:
                    break
                tenant = sorted(live)[int(rng.integers(len(live)))]
                current, dropped = live[tenant]
                removable = removable_switch_links(current)
                if dropped and (not removable or int(rng.integers(2)) == 0):
                    key = dropped[int(rng.integers(len(dropped)))]
                    edited, now = rebuild(current, add_links=[key]), [
                        d for d in dropped if d != key
                    ]
                elif removable:
                    key = removable[int(rng.integers(len(removable)))]
                    edited, now = rebuild(current, drop_links={key}), dropped + [key]
                else:
                    continue
                before = _live_by_cookie(pool)
                books = _books(service)
                inc0 = _counter(
                    "sdt_controller_reconfigure_mode_total", mode="incremental"
                )
                try:
                    deployment = run_op(
                        service, "reconfigure", tenant, name=current.name,
                        config=TopologyConfig.from_topology(edited),
                    )
                except AdmissionError:
                    assert _live_by_cookie(pool) == before, f"case {idx}"
                    assert _books(service) == books, f"case {idx}"
                    continue
                incremental_runs += int(_counter(
                    "sdt_controller_reconfigure_mode_total", mode="incremental"
                ) - inc0)
                live[tenant] = (edited, now)
                after = _live_by_cookie(pool)
                owns = service.sessions[tenant].owns_cookie
                expected = {
                    sw: keys
                    for sw, keys in _rules_multiset(deployment.rules).items()
                    if keys
                }
                assert {c: v for c, v in after.items() if owns(c)} == {
                    deployment.cookie: expected
                }, f"case {idx}"
                scratch = synthesize_rules(
                    deployment.projection, deployment.routes,
                    cookie=deployment.cookie,
                )
                assert _rules_multiset(scratch) == _rules_multiset(deployment.rules)
                assert {c: v for c, v in after.items() if not owns(c)} == {
                    c: v for c, v in before.items() if not owns(c)
                }, f"case {idx}"
                assert not service.verifier.verify(
                    service.sessions.values(), strict=False
                ).problems, f"case {idx}"
        finally:
            service.shutdown()
    assert incremental_runs >= cases // 2, incremental_runs


def test_a_closed_session_leaves_no_gauge_series(service):
    """Ending a session removes its tenant's per-tenant gauge series
    instead of parking them at zero: a churning service would otherwise
    export one dead series per tenant it ever admitted."""
    service.open_session("alice", TenantQuota(host_ports=16, tcam_share=2000))
    service.open_session("bob", TenantQuota(host_ports=16, tcam_share=2000))
    run_op(service, "deploy", "alice", config=CHAIN3)
    run_op(service, "deploy", "bob", config=CHAIN3)
    run_op(service, "evict", "alice")
    reg = metrics.registry()
    for name in (
        "tenant_host_ports_leased",
        "tenant_host_ports_used",
        "tenant_deployments",
    ):
        tenants = {labels.get("tenant") for labels, _ in reg.gauge(name).series()}
        assert "alice" not in tenants, name
        assert "bob" in tenants, name
