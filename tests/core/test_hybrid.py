"""Hybrid SDT-OS (§VII-A): optical flex links cover wiring deficits."""

import pytest

from repro.core import SDTController
from repro.core.projection import HybridLinkProjection, LinkProjection
from repro.hardware import (
    H3C_S6861,
    OpticalCircuitSwitch,
    PhysicalCluster,
    default_wiring,
)
from repro.topology import chain
from repro.util.errors import CapacityError, WiringError


def starved_cluster(*, flex_per_switch=8, inter=2, hosts=10):
    """Deliberately under-reserved fixed wiring: fat-tree k=4 needs ~12
    inter-switch links on 2 switches but only ``inter`` are cabled."""
    names = ["phys0", "phys1"]
    wiring = default_wiring(
        names, 64,
        hosts_per_switch=hosts,
        inter_links_per_pair=inter,
        flex_ports_per_switch=flex_per_switch,
    )
    return PhysicalCluster.build(2, H3C_S6861, wiring=wiring)


def test_plain_projection_fails_on_starved_wiring(fattree4):
    cluster = starved_cluster()
    controller = SDTController(cluster)
    with pytest.raises(CapacityError, match="inter-switch"):
        controller.deploy(fattree4)


def test_hybrid_covers_the_deficit(fattree4):
    cluster = starved_cluster()
    ocs = OpticalCircuitSwitch(num_ports=16)
    controller = SDTController(cluster, optical=ocs)
    dep = controller.deploy(fattree4)
    assert dep.hybrid_plan is not None
    assert dep.hybrid_plan.flex_links_minted > 0
    assert ocs.circuits  # circuits live
    dep.projection.validate()


def test_hybrid_projection_routes_packets(fattree4):
    from repro.openflow import PacketHeader

    cluster = starved_cluster()
    ocs = OpticalCircuitSwitch(num_ports=16)
    controller = SDTController(cluster, optical=ocs)
    dep = controller.deploy(fattree4)
    # inject at h0's physical port; must not drop at the first hop
    src = dep.projection.host_map["h0"]
    dst = dep.projection.host_map["h15"]
    sw, port = cluster.host_location(src)
    decision = cluster.switches[sw].forward(port, PacketHeader(src, dst), 64)
    assert not decision.dropped


def test_optical_time_charged_to_deployment(fattree4):
    cluster = starved_cluster()
    ocs = OpticalCircuitSwitch(num_ports=16)
    controller = SDTController(cluster, optical=ocs)
    dep = controller.deploy(fattree4)
    assert dep.deployment_time >= ocs.settle_time


def test_undeploy_releases_circuits(fattree4):
    cluster = starved_cluster()
    ocs = OpticalCircuitSwitch(num_ports=16)
    controller = SDTController(cluster, optical=ocs)
    dep = controller.deploy(fattree4)
    minted = len(ocs.circuits)
    assert minted > 0
    controller.undeploy(dep)
    assert len(ocs.circuits) == 0
    # redeploy works (ports are dark again)
    dep2 = controller.deploy(fattree4)
    assert dep2.hybrid_plan.flex_links_minted > 0


def test_no_deficit_means_no_circuits():
    cluster = starved_cluster(inter=2, hosts=8)
    ocs = OpticalCircuitSwitch(num_ports=16)
    controller = SDTController(cluster, optical=ocs)
    dep = controller.deploy(chain(3))  # tiny topology: fixed wiring suffices
    assert dep.hybrid_plan.flex_links_minted == 0
    assert not ocs.circuits


def test_flex_pool_exhaustion_reported(fattree4):
    cluster = starved_cluster(flex_per_switch=2)  # too few for the deficit
    ocs = OpticalCircuitSwitch(num_ports=16)
    controller = SDTController(cluster, optical=ocs)
    with pytest.raises(CapacityError, match="flex ports"):
        controller.deploy(fattree4)


def test_host_deficit_not_fixable_optically(fattree4):
    cluster = starved_cluster(hosts=2, inter=12, flex_per_switch=8)
    ocs = OpticalCircuitSwitch(num_ports=16)
    hybrid = HybridLinkProjection(LinkProjection(cluster), ocs)
    with pytest.raises(CapacityError, match="cannot mint host ports"):
        hybrid.plan(fattree4)


def test_ocs_device_semantics():
    ocs = OpticalCircuitSwitch(num_ports=4)
    t = ocs.configure([(1, 2)])
    assert t >= ocs.settle_time
    assert ocs.connected_to(1) == 2
    assert ocs.connected_to(3) is None
    assert ocs.free_ports == [3, 4]
    with pytest.raises(WiringError, match="itself"):
        ocs.configure([(1, 1)])
    with pytest.raises(WiringError, match="reused"):
        ocs.configure([(1, 2), (2, 3)])
    with pytest.raises(WiringError, match="out of range"):
        ocs.configure([(1, 9)])


def test_hybrid_links_work_in_netsim(fattree4):
    """Optically minted links carry simulated traffic end to end."""
    from repro.mpi import MpiJob
    from repro.netsim import build_sdt_network
    from repro.workloads import workload

    cluster = starved_cluster()
    ocs = OpticalCircuitSwitch(num_ports=16)
    controller = SDTController(cluster, optical=ocs)
    dep = controller.deploy(fattree4)
    net = build_sdt_network(cluster, dep)
    hosts = fattree4.hosts[:4]
    addrs = {r: dep.projection.host_map[hosts[r]] for r in range(4)}
    w = workload("imb-alltoall", msglen=4096, repetitions=1)
    res = MpiJob(net, addrs, w.build(4)).run()
    assert res.act > 0


def test_optical_rig_keeps_occupancy_placement_and_the_partition_cache():
    """The hybrid projector wraps the projector the controller builds
    for every rig, so the placement policy and the partition cache hold
    on an optical rig too (they used to be dropped on the way)."""
    from repro.core import TopologyConfig
    from repro.telemetry import metrics

    names = ["phys0", "phys1", "phys2"]
    wiring = default_wiring(
        names, 64,
        hosts_per_switch=6, inter_links_per_pair=2, flex_ports_per_switch=4,
    )
    cluster = PhysicalCluster.build(3, H3C_S6861, wiring=wiring)
    controller = SDTController(
        cluster, optical=OpticalCircuitSwitch(num_ports=12),
        placement="occupancy",
    )
    first = controller.deploy(TopologyConfig.from_topology(chain(2)))
    taken = set(first.projection.part_to_phys.values())
    assert len(taken) == 2

    emptiest = controller._projector(controller._free()).names[:2]
    assert set(emptiest) != taken  # the untouched switch now ranks first
    config = TopologyConfig.from_topology(chain(2, hosts_per_switch=2))
    second = controller.deploy(config)
    assert [second.projection.part_to_phys[p] for p in (0, 1)] == emptiest

    hits = metrics.registry().counter("sdt_partition_cache_total")
    before = hits.value(result="hit")
    assert controller.check(config) == []
    assert hits.value(result="hit") == before + 1
