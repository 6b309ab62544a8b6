"""Link Projection (§IV): feasibility checking and resource mapping."""

import pytest

from repro.core.projection import (
    FreeWiring,
    LinkProjection,
    host_port_demand,
    inter_switch_link_demand,
    plan_inter_switch_reservation,
    self_link_demand,
)
from repro.hardware import H3C_S6861, PhysicalCluster
from repro.hardware.wiring import HostPort, InterSwitchLink, SelfLink
from repro.partition import partition_topology
from repro.topology import fat_tree, torus2d
from repro.util.errors import CapacityError


def cluster_for_fattree():
    return PhysicalCluster.build(2, H3C_S6861, hosts_per_switch=10,
                                 inter_links_per_pair=12)


def test_check_passes_when_resources_fit(fattree4):
    lp = LinkProjection(cluster_for_fattree())
    _partition, problems = lp.check(fattree4)
    assert problems == []


def test_check_reports_missing_inter_links(fattree4):
    cluster = PhysicalCluster.build(2, H3C_S6861, hosts_per_switch=10,
                                    inter_links_per_pair=1)
    lp = LinkProjection(cluster)
    _partition, problems = lp.check(fattree4)
    assert any("inter-switch" in p for p in problems)


def test_check_reports_missing_hosts(fattree4):
    cluster = PhysicalCluster.build(2, H3C_S6861, hosts_per_switch=2,
                                    inter_links_per_pair=12)
    lp = LinkProjection(cluster)
    _partition, problems = lp.check(fattree4)
    assert any("host ports" in p for p in problems)


def test_project_maps_every_link(fattree4):
    lp = LinkProjection(cluster_for_fattree())
    result = lp.project(fattree4)
    result.validate()
    assert len(result.link_realization) == len(fattree4.links)
    stats = result.stats()
    assert stats["self_links_used"] + stats["inter_switch_links_used"] == 32
    assert stats["host_ports_used"] == 16


def test_project_respects_partition_side(fattree4):
    lp = LinkProjection(cluster_for_fattree())
    result = lp.project(fattree4)
    for sw in fattree4.switches:
        sub = result.subswitches[sw]
        for lp_port in fattree4.ports_of(sw):
            assert result.port_map[lp_port].switch == sub.phys_switch


def test_internal_links_become_self_links(fattree4):
    lp = LinkProjection(cluster_for_fattree())
    result = lp.project(fattree4)
    for link in fattree4.switch_links:
        pa = result.partition.part_of(link.a.node)
        pb = result.partition.part_of(link.b.node)
        realization = result.link_realization[link.index]
        if pa == pb:
            assert isinstance(realization, SelfLink)
        else:
            assert isinstance(realization, InterSwitchLink)


def test_host_links_become_host_ports(fattree4):
    lp = LinkProjection(cluster_for_fattree())
    result = lp.project(fattree4)
    for link in fattree4.host_links:
        assert isinstance(result.link_realization[link.index], HostPort)


def test_project_raises_with_named_deficiency(fattree4):
    cluster = PhysicalCluster.build(2, H3C_S6861, hosts_per_switch=2,
                                    inter_links_per_pair=1)
    lp = LinkProjection(cluster)
    with pytest.raises(CapacityError, match="cannot project"):
        lp.project(fattree4)


def test_exclude_prevents_resource_reuse(chain8):
    cluster = PhysicalCluster.build(1, H3C_S6861, hosts_per_switch=16)
    first = LinkProjection(cluster).project(chain8)
    used = set(first.link_realization.values())
    second = LinkProjection(
        cluster, free=FreeWiring(cluster.wiring, used)
    ).project(chain8)
    assert not used & set(second.link_realization.values())


def test_metadata_base_offsets_ids(chain8):
    cluster = PhysicalCluster.build(1, H3C_S6861, hosts_per_switch=16)
    result = LinkProjection(cluster, metadata_base=100).project(chain8)
    ids = {sub.metadata_id for sub in result.subswitches.values()}
    assert min(ids) == 100
    assert len(ids) == len(chain8.switches)


def test_demand_functions_match_partition(fattree4):
    partition = partition_topology(fattree4, 2)
    interd = inter_switch_link_demand(fattree4, partition)
    selfd = self_link_demand(fattree4, partition)
    hostd = host_port_demand(fattree4, partition)
    assert sum(interd.values()) + sum(selfd.values()) == len(fattree4.switch_links)
    assert sum(hostd.values()) == len(fattree4.host_links)


def test_reservation_plan_covers_all_topologies():
    topos = [fat_tree(4), torus2d(4, 4)]
    budget = plan_inter_switch_reservation(topos, 2)
    for topo in topos:
        partition = partition_topology(topo, 2)
        interd = inter_switch_link_demand(topo, partition)
        assert max(interd.values(), default=0) <= budget["inter_links_per_pair"]
        selfd = self_link_demand(topo, partition)
        assert max(selfd.values(), default=0) <= budget["self_links_per_switch"]


def test_single_switch_projection(chain8):
    cluster = PhysicalCluster.build(1, H3C_S6861, hosts_per_switch=8)
    result = LinkProjection(cluster).project(chain8)
    assert result.stats()["inter_switch_links_used"] == 0


def test_multi_homed_hosts_rejected():
    """BCube hosts have several NICs; projection names the limitation."""
    from repro.topology import bcube
    from repro.util.errors import ProjectionError

    cluster = PhysicalCluster.build(2, H3C_S6861, hosts_per_switch=16,
                                    inter_links_per_pair=8)
    lp = LinkProjection(cluster)
    with pytest.raises(ProjectionError, match="multi-homed"):
        lp.check(bcube(4, 1))
