"""RouteTable.walk: the one route walker and its error contract."""

import pytest

from repro.core.projection import route_usage
from repro.routing import Hop, RouteTable, find_cycle, routes_for
from repro.topology import Topology, fat_tree
from repro.util.errors import RoutingError


def test_walk_yields_every_hop_delivery_last():
    topo = fat_tree(4)
    table = routes_for(topo)
    steps = list(table.walk("h0", "h15"))
    assert [node for node, *_ in steps] == table.trace("h0", "h15")
    assert steps[0][0] == topo.host_switch("h0")
    assert steps[-1][3] == "h15"
    for node, hop, link, nxt in steps:
        assert hop.port.node == node
        assert link == topo.link_of_port(hop.port)
        assert nxt == link.other(node)
    assert [nxt for *_, nxt in steps[:-1]] == [node for node, *_ in steps[1:]]


def test_walk_from_a_switch_starts_there():
    topo = fat_tree(4)
    table = routes_for(topo)
    attach = topo.host_switch("h0")
    assert list(table.walk(attach, "h15")) == list(table.walk("h0", "h15"))
    assert list(table.walk("h3", "h3")) == []


def _two_switches():
    """s0 -- s1, host h0 on s0 and h1 on s1."""
    t = Topology("pair")
    t.add_switch("s0")
    t.add_switch("s1")
    t.add_host("h0")
    t.add_host("h1")
    t.connect("s0", "s1")
    t.connect("s0", "h0")
    t.connect("s1", "h1")
    return t


def _looping(topo):
    table = RouteTable(topo)
    table.set_hop("s0", "h1", Hop(topo.link_between("s0", "s1").port_on("s0")))
    table.set_hop("s1", "h1", Hop(topo.link_between("s1", "s0").port_on("s1")))
    return table


def _dead_end(topo):
    table = RouteTable(topo)
    table.set_hop("s0", "h1", Hop(topo.link_between("s0", "s1").port_on("s0")))
    return table


def _wrong_host(topo):
    table = RouteTable(topo)
    table.set_hop("s0", "h1", Hop(topo.link_between("s0", "h0").port_on("s0")))
    return table


CONSUMERS = {
    "walk": lambda table: list(table.walk("h0", "h1")),
    "trace": lambda table: table.trace("h0", "h1"),
    "find_cycle": find_cycle,
    "route_usage": lambda table: route_usage(table.topology, table),
}


@pytest.mark.parametrize("consumer", sorted(CONSUMERS))
@pytest.mark.parametrize("broken", [_looping, _dead_end, _wrong_host])
def test_a_broken_route_is_a_routing_error_everywhere(broken, consumer):
    with pytest.raises(RoutingError):
        CONSUMERS[consumer](broken(_two_switches()))
