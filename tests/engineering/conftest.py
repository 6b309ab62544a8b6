"""Shared engineering rig: a small ring deployed on a cluster whose
physical wiring has headroom (planned against the complete switch
graph) for any link the search may add."""

from __future__ import annotations

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import H3C_S6861
from repro.netsim import RoceTransport, build_sdt_network
from repro.topology import Topology

RING = 6


def ring_topology(n: int = RING) -> Topology:
    topo = Topology(f"ring{n}")
    for i in range(n):
        topo.add_switch(f"s{i}")
    for i in range(n):
        topo.connect(f"s{i}", f"s{(i + 1) % n}")
    for i in range(n):
        topo.add_host(f"h{i}")
        topo.connect(f"h{i}", f"s{i}")
    return topo


def headroom_topology(n: int = RING) -> Topology:
    topo = Topology(f"ring{n}-headroom")
    for i in range(n):
        topo.add_switch(f"s{i}")
    for i in range(n):
        for j in range(i + 1, n):
            topo.connect(f"s{i}", f"s{j}")
    for i in range(n):
        topo.add_host(f"h{i}")
        topo.connect(f"h{i}", f"s{i}")
    return topo


@pytest.fixture()
def rig():
    """(controller, deployment) for the ring, with engineering headroom."""
    topo = ring_topology()
    cluster = build_cluster_for([topo, headroom_topology()], 2, H3C_S6861)
    controller = SDTController(cluster)
    deployment = controller.deploy(TopologyConfig.from_topology(topo))
    return controller, deployment


class Driver:
    """Replay RoCE transfers between hosts and bracket them with
    monitor polls, keeping a monotonically increasing clock so every
    run becomes the newest utilization interval."""

    def __init__(self, controller, *, nbytes: int = 4 * 1024 * 1024):
        self.controller = controller
        self.nbytes = nbytes
        self.clock = 0.0

    def poll(self, deployment) -> None:
        self.controller.monitor.poll(self.clock, deployment.projection)

    def run(self, deployment, pairs) -> float:
        """One observation round; returns the modeled ACT."""
        self.poll(deployment)
        act = 0.0
        if pairs:
            net = build_sdt_network(self.controller.cluster, deployment)
            hm = deployment.projection.host_map
            for src, dst in pairs:
                RoceTransport(net, hm[dst])
                RoceTransport(net, hm[src]).send(hm[dst], self.nbytes)
            act = net.sim.run()
        self.clock += max(act, 1e-9)
        self.poll(deployment)
        return act
