"""ECMP via SELECT groups on a projected fat-tree."""

import pytest

from repro.core import build_cluster_for
from repro.core.projection import LinkProjection
from repro.core.rules_ecmp import install_ecmp
from repro.hardware import OPENFLOW_128x100G
from repro.openflow import Bucket, GroupEntry, OpenFlowSwitch, Output, PacketHeader
from repro.routing.strategies import fattree_candidates
from repro.topology import fat_tree
from repro.util.errors import SimulationError


@pytest.fixture(scope="module")
def deployed():
    topo = fat_tree(4)
    cluster = build_cluster_for([topo], 2, OPENFLOW_128x100G)
    projection = LinkProjection(cluster).project(topo)
    rules = install_ecmp(cluster, projection)
    return topo, cluster, projection, rules


# --- group device semantics -------------------------------------------------

def test_select_group_stable_per_flow():
    g = GroupEntry(1, "select", [Bucket((Output(p),)) for p in (1, 2, 3, 4)])
    h = PacketHeader(src="a", dst="b", src_port=5, dst_port=9)
    picks = {g.select_bucket(h).actions[0].port for _ in range(10)}
    assert len(picks) == 1  # same flow, same bucket


def test_select_group_spreads_flows():
    g = GroupEntry(1, "select", [Bucket((Output(p),)) for p in (1, 2, 3, 4)])
    ports = {
        g.select_bucket(PacketHeader(src=f"h{i}", dst="b")).actions[0].port
        for i in range(64)
    }
    assert len(ports) >= 3  # 64 flows land on most buckets


def test_select_group_weighted():
    g = GroupEntry(1, "select", [
        Bucket((Output(1),), weight=7),
        Bucket((Output(2),), weight=1),
    ])
    counts = {1: 0, 2: 0}
    for i in range(400):
        p = g.select_bucket(PacketHeader(src=f"h{i}", dst=f"d{i}"))
        counts[p.actions[0].port] += 1
    assert counts[1] > 4 * counts[2]


def test_all_group_replicates():
    sw = OpenFlowSwitch("s", 4)
    sw.add_group(GroupEntry(9, "all", [
        Bucket((Output(2),)), Bucket((Output(3),)),
    ]))
    from repro.openflow import ApplyActions, Group, Match

    sw.add_flow(0, 10, Match(), (ApplyActions((Group(9),)),))
    d = sw.forward(1, PacketHeader("a", "b"), 64)
    assert set(d.out_ports) == {2, 3}


def test_rule_referencing_missing_group_rejected():
    sw = OpenFlowSwitch("s", 4)
    from repro.openflow import ApplyActions, Group, Match

    with pytest.raises(SimulationError, match="missing group"):
        sw.add_flow(0, 10, Match(), (ApplyActions((Group(42),)),))


def test_bad_group_construction():
    with pytest.raises(SimulationError, match="no buckets"):
        GroupEntry(1, "select", [])
    with pytest.raises(SimulationError, match="unknown group type"):
        GroupEntry(1, "indirect", [Bucket((Output(1),))])


# --- fat-tree ECMP deployment -----------------------------------------------

def test_candidates_multipath_upward():
    topo = fat_tree(4)
    c = fattree_candidates(topo)
    # edge switch to a remote host: 2 aggregation uplinks
    assert len(c[("edge0-0", "h15")]) == 2
    # downward hop is unique
    assert len(c[("agg3-0", "h15")]) == 1
    # the last hop is the host itself
    assert c[(topo.host_switch("h15"), "h15")] == ("h15",)


def test_groups_installed_and_deduped(deployed):
    _topo, cluster, _proj, _rules = deployed
    total_groups = sum(len(sw.groups) for sw in cluster.switches.values())
    assert total_groups > 0
    # one group per (sub-switch, uplink set): 8 edges + 8 aggs = 16
    assert total_groups == 16


def test_flows_spread_over_cores(deployed):
    """Different source hosts hashing to different cores — the load
    balancing the destination-hash baseline cannot do per flow."""
    topo, cluster, proj, _rules = deployed
    # walk packets from every host to h15; record the core traversed
    cores_seen = set()
    wiring = cluster.wiring
    for src in topo.hosts[:8]:
        if src == "h15":
            continue
        hdr = PacketHeader(src=proj.host_map[src], dst=proj.host_map["h15"])
        sw_name, port = cluster.host_location(proj.host_map[src])
        for _hop in range(16):
            decision = cluster.switches[sw_name].forward(port, hdr, 64)
            assert not decision.dropped, (src, sw_name, port)
            out = decision.out_ports[0]
            nxt = None
            for sl in wiring.self_links_of(sw_name):
                if out in (sl.port_a, sl.port_b):
                    nxt = (sw_name, sl.other(out))
                    break
            if nxt is None:
                for il in wiring.inter_links_of(sw_name):
                    if il.endpoint_on(sw_name) == out:
                        nxt = il.other_end(sw_name)
                        break
            if nxt is None:
                break  # delivered
            # which logical switch owns the port we just entered?
            sw_name, port = nxt
            for lsw, sub in proj.subswitches.items():
                if any(
                    pp.switch == sw_name and pp.port == port
                    for pp in sub.ports.values()
                ):
                    if lsw.startswith("core"):
                        cores_seen.add(lsw)
    assert len(cores_seen) >= 2  # flows really spread


def test_ecmp_delivers_all_pairs(deployed):
    topo, cluster, proj, _rules = deployed
    wiring = cluster.wiring
    for src in topo.hosts:
        for dst in topo.hosts[::3]:
            if src == dst:
                continue
            hdr = PacketHeader(src=proj.host_map[src], dst=proj.host_map[dst])
            sw_name, port = cluster.host_location(proj.host_map[src])
            delivered = None
            for _hop in range(16):
                decision = cluster.switches[sw_name].forward(port, hdr, 64)
                assert not decision.dropped, (src, dst)
                out = decision.out_ports[0]
                nxt = None
                for sl in wiring.self_links_of(sw_name):
                    if out in (sl.port_a, sl.port_b):
                        nxt = (sw_name, sl.other(out))
                        break
                if nxt is None:
                    for il in wiring.inter_links_of(sw_name):
                        if il.endpoint_on(sw_name) == out:
                            nxt = il.other_end(sw_name)
                            break
                if nxt is None:
                    for hp in wiring.hosts_of(sw_name):
                        if hp.port == out:
                            delivered = hp.host
                            break
                    break
                sw_name, port = nxt
            assert delivered == proj.host_map[dst], (src, dst)


def test_rule_count_comparable_to_baseline(deployed):
    """ECMP adds groups but not rule bloat: table-1 entries stay one per
    (sub-switch, destination)."""
    topo, cluster, proj, rules = deployed
    from repro.core.rules import ROUTE_TABLE

    route_rules = sum(
        1 for mods in rules.values() for m in mods
        if m.table_id == ROUTE_TABLE
    )
    assert route_rules == len(topo.switches) * len(topo.hosts)
