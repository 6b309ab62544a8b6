"""Link-failure handling: reroute around failures on a live deployment."""

import pytest

from repro.analysis.table3 import TABLE3_CASES
from repro.core import SDTController, build_cluster_for
from repro.hardware import EVAL_256x10G
from repro.mpi import MpiJob
from repro.netsim import build_sdt_network
from repro.routing import find_cycle, reroute_avoiding, routes_for
from repro.topology import chain, fat_tree, torus2d
from repro.topology.diff import link_key, rebuild, removable_switch_links
from repro.topology.zoo import build_zoo_topology, zoo_catalog
from repro.util.errors import RoutingError
from repro.workloads import workload
from tests.proptools import prop_cases, random_topology, seeded_cases


@pytest.fixture()
def torus_deployment():
    topo = torus2d(4, 4)
    cluster = build_cluster_for([topo], 2, EVAL_256x10G)
    controller = SDTController(cluster)
    return controller, controller.deploy(topo)


def run_alltoall(controller, deployment, n=6):
    topo = deployment.topology
    hosts = topo.hosts[:n]
    net = build_sdt_network(controller.cluster, deployment)
    addrs = {r: deployment.projection.host_map[hosts[r]] for r in range(n)}
    w = workload("imb-alltoall", msglen=2048, repetitions=1)
    return MpiJob(net, addrs, w.build(n)).run()


def crossed_failed_links(table, failed):
    """Failed links some host pair's route in ``table`` crosses."""
    hosts = table.topology.hosts
    return {
        link.index
        for src in hosts
        for dst in hosts
        for _node, _hop, link, _nxt in table.walk(src, dst)
        if link.index in failed
    }


def test_reroute_avoids_failed_link():
    topo = torus2d(4, 4)
    failed = topo.link_between("s0-0", "s0-1").index
    table = reroute_avoiding(topo, {failed})
    table.validate_all_pairs()
    assert not crossed_failed_links(table, {failed})


def _failure_set(topo, rng, max_failures=3):
    """1..max_failures switch links whose joint removal keeps ``topo``
    connected: each is drawn from the non-bridges of what survives the
    ones before it."""
    dropped = set()
    for _ in range(int(rng.integers(1, max_failures + 1))):
        candidates = removable_switch_links(rebuild(topo, drop_links=dropped))
        if not candidates:
            break
        dropped.add(candidates[int(rng.integers(0, len(candidates)))])
    return {l.index for l in topo.links if link_key(*l.endpoints) in dropped}


def _zoo(i, rng):
    small = [e for e in zoo_catalog() if e.num_links <= 40]
    entry = small[int(rng.integers(0, len(small)))]
    return build_zoo_topology(entry, hosts_per_switch=1)


def _table3(i, rng):
    _name, build, *_ = TABLE3_CASES[i % len(TABLE3_CASES)]
    return build()


@pytest.mark.parametrize("family, topology_of, cases", [
    ("zoo", _zoo, 30),
    ("random", lambda i, rng: random_topology(rng, min_switches=3), 40),
    ("table3", _table3, 12),
], ids=["zoo", "random", "table3"])
def test_updown_repair_is_cycle_free_and_avoids_failures(
    family, topology_of, cases
):
    """For any failure set that leaves the fabric connected, the
    up*/down* repair has an acyclic CDG — so the controller's Deadlock
    Avoidance vetting admits it on a lossless fabric — and no route
    crosses a failed link."""
    for i, rng in seeded_cases(prop_cases(cases), 27, "repair", family):
        topo = topology_of(i, rng)
        failed = _failure_set(topo, rng)
        table = reroute_avoiding(topo, failed)
        assert find_cycle(table) is None, (family, i, topo.name, failed)
        assert not crossed_failed_links(table, failed), (family, i, topo.name)


def test_reroute_severed_pair_raises():
    topo = chain(4)  # no redundancy: cutting any switch link severs it
    failed = topo.link_between("s1", "s2").index
    with pytest.raises(RoutingError, match="severs"):
        reroute_avoiding(topo, {failed})


def test_failed_host_attach_drops_quietly():
    topo = torus2d(3, 3)
    attach = topo.link_between(topo.host_switch("h0"), "h0").index
    table = reroute_avoiding(topo, {attach})
    # other pairs still fine; h0 has no entries anywhere
    assert not table.has_route("s1-1", "h0")
    assert table.has_route("s1-1", "h1")


def test_fail_link_on_live_deployment(torus_deployment):
    controller, dep = torus_deployment
    before = run_alltoall(controller, dep)

    link = dep.topology.link_between("s0-0", "s1-0")
    repair_time = controller.fail_link(dep, link.index)
    assert repair_time > 0
    assert dep.failed_links == {link.index}

    after = run_alltoall(controller, dep)
    assert after.bytes_sent == before.bytes_sent  # same traffic delivered
    # detours can only lengthen paths
    assert after.act >= before.act * 0.99


def test_failed_link_carries_no_traffic(torus_deployment):
    controller, dep = torus_deployment
    link = dep.topology.link_between("s0-0", "s1-0")
    controller.fail_link(dep, link.index)

    realization = dep.projection.link_realization[link.index]
    run_alltoall(controller, dep)  # separate network; just reuse rules

    # walk the data plane: no installed rule outputs on the dead cable
    from repro.core.rules import ROUTE_TABLE
    from repro.openflow import output_ports

    dead_ports = {
        (realization.switch, realization.port_a),
        (realization.switch, realization.port_b),
    }
    for name, mods in dep.rules.mods.items():
        for m in mods:
            if m.table_id == ROUTE_TABLE:
                for port in output_ports(m.instructions):
                    assert (name, port) not in dead_ports


def test_multiple_failures_accumulate(torus_deployment):
    controller, dep = torus_deployment
    l1 = dep.topology.link_between("s0-0", "s1-0").index
    l2 = dep.topology.link_between("s0-0", "s0-1").index
    controller.fail_link(dep, l1)
    controller.fail_link(dep, l2)
    assert dep.failed_links == {l1, l2}
    res = run_alltoall(controller, dep)
    assert res.act > 0


def test_restore_links(torus_deployment):
    controller, dep = torus_deployment
    original_vcs = dep.routes.num_vcs
    link = dep.topology.link_between("s0-0", "s1-0")
    controller.fail_link(dep, link.index)
    assert dep.routes.num_vcs == 1  # repair routes are single-VC
    controller.restore_links(dep)
    assert dep.failed_links == set()
    assert dep.routes.num_vcs == original_vcs  # dateline table is back
    run_alltoall(controller, dep)


def test_update_routes_replaces_cookie(torus_deployment):
    controller, dep = torus_deployment
    old_cookie = dep.cookie
    controller.update_routes(dep, routes_for(dep.topology))
    assert dep.cookie != old_cookie
    installed = sum(
        sw.num_entries for sw in controller.cluster.switches.values()
    )
    assert installed == dep.rules.count()  # no stale entries left


def test_update_routes_requires_deployment():
    topo = fat_tree(4)
    cluster = build_cluster_for([topo], 2, EVAL_256x10G)
    controller = SDTController(cluster)
    dep = controller.deploy(topo)
    controller.undeploy(dep)
    with pytest.raises(Exception, match="not deployed"):
        controller.update_routes(dep, routes_for(topo))
