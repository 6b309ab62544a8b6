"""Network builders: logical vs SDT fabric equivalence."""

import pytest

from repro.core import SDTController, build_cluster_for
from repro.hardware import H3C_S6861
from repro.netsim import (
    NetworkConfig,
    RoceTransport,
    build_logical_network,
    build_sdt_network,
)
from repro.routing import routes_for
from repro.topology import fat_tree


def pingpong_rtt(net, a, b, nbytes=1024, reps=10):
    ta = RoceTransport(net, a)
    tb = RoceTransport(net, b)
    state = {"n": 0, "t0": 0.0, "rtts": []}

    def a_got(src, tag, size, t):
        state["rtts"].append(t - state["t0"])
        state["n"] += 1
        if state["n"] < reps:
            kick()

    def b_got(src, tag, size, t):
        tb.send(a, nbytes)

    ta.on_message(a_got)
    tb.on_message(b_got)

    def kick():
        state["t0"] = net.sim.now
        ta.send(b, nbytes)

    kick()
    net.sim.run()
    return sum(state["rtts"]) / len(state["rtts"])


def sdt_net(topo, config=None):
    cluster = build_cluster_for([topo], 2, H3C_S6861)
    controller = SDTController(cluster)
    dep = controller.deploy(topo)
    return build_sdt_network(cluster, dep, config), dep


def test_logical_network_shape(chain8):
    net = build_logical_network(chain8, routes_for(chain8))
    assert len(net.switches) == 8
    assert len(net.hosts) == 8
    assert net.kind == "logical"


def test_sdt_network_uses_physical_switches(chain8):
    net, dep = sdt_net(chain8)
    assert set(net.switches) == {"phys0", "phys1"}
    assert set(net.hosts) == set(dep.projection.host_map.values())
    assert net.kind == "sdt"


def test_sdt_rtt_close_to_logical(chain8):
    rtt_logical = pingpong_rtt(
        build_logical_network(chain8, routes_for(chain8)), "h0", "h7"
    )
    net, dep = sdt_net(chain8)
    rtt_sdt = pingpong_rtt(
        net, dep.projection.host_map["h0"], dep.projection.host_map["h7"]
    )
    overhead = (rtt_sdt - rtt_logical) / rtt_logical
    # paper Fig. 11: positive but below ~2%
    assert 0.0 < overhead < 0.03


def test_sdt_overhead_shrinks_with_size(chain8):
    overheads = []
    for nbytes in (128, 65536):
        rtt_l = pingpong_rtt(
            build_logical_network(chain8, routes_for(chain8)), "h0", "h7",
            nbytes,
        )
        net, dep = sdt_net(chain8)
        rtt_s = pingpong_rtt(
            net, dep.projection.host_map["h0"],
            dep.projection.host_map["h7"], nbytes,
        )
        overheads.append((rtt_s - rtt_l) / rtt_l)
    assert overheads[1] < overheads[0]


def test_sdt_counters_feed_monitor(chain8):
    """Packets through the SDT fabric update the emulated switches' port
    counters, which is what the Network Monitor polls."""
    cluster = build_cluster_for([chain8], 2, H3C_S6861)
    controller = SDTController(cluster)
    dep = controller.deploy(chain8)
    net = build_sdt_network(cluster, dep)
    pingpong_rtt(net, dep.projection.host_map["h0"],
                 dep.projection.host_map["h7"])
    total_tx = sum(
        s.tx_bytes
        for sw in cluster.switches.values()
        for s in sw.port_stats.values()
    )
    assert total_tx > 0
    controller.monitor.poll(0.0)
    controller.monitor.poll(1.0)
    # at least one hot port visible to telemetry after traffic
    assert controller.monitor.hottest_ports(3)


def test_unknown_host_rejected(chain8):
    net = build_logical_network(chain8, routes_for(chain8))
    with pytest.raises(Exception, match="no host"):
        net.host("ghost")


def test_fattree_multipath_delivery():
    topo = fat_tree(4)
    net = build_logical_network(topo, routes_for(topo))
    rtt = pingpong_rtt(net, "h0", "h15")
    assert rtt > 0


def test_network_config_knobs_applied(chain8):
    cfg = NetworkConfig(pfc_enabled=False, cut_through=False)
    net = build_logical_network(chain8, routes_for(chain8), cfg)
    some_port = next(iter(net.switches["s0"].ports.values()))
    assert not some_port.config.pfc_enabled
    assert not some_port.config.cut_through


def _inject(net, src, dst):
    from repro.netsim.packet import Packet
    from repro.openflow.match import PacketHeader

    net.hosts[src].inject(
        Packet(header=PacketHeader(src=src, dst=dst, proto="roce"), size=256), 0
    )


def test_unroutable_packet_is_dropped_and_counted(chain8):
    net = build_logical_network(chain8, routes_for(chain8))
    _inject(net, "h0", "ghost")
    net.sim.run()
    assert net.switches["s0"].dropped == 1
    assert net.switches["s0"].forwarded == 0


def test_forwarder_bug_is_not_mistaken_for_a_table_miss(chain8, monkeypatch):
    """Only RoutingError means "no route"; anything else raised while
    resolving the next hop is a bug on the reference arm and must
    surface, not turn into silent loss."""
    routes = routes_for(chain8)

    def broken(switch, dst, in_vc=0):
        raise ZeroDivisionError("bug in next_hop")

    monkeypatch.setattr(routes, "next_hop", broken)
    net = build_logical_network(chain8, routes)
    _inject(net, "h0", "h7")
    with pytest.raises(ZeroDivisionError, match="bug in next_hop"):
        net.sim.run()
    assert net.switches["s0"].dropped == 0
