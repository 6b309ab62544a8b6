"""Topology graph invariants."""

import pytest

from repro.topology import Topology
from repro.util.errors import TopologyError


def make_simple():
    t = Topology("t")
    t.add_switch("s0")
    t.add_switch("s1")
    t.add_host("h0")
    t.add_host("h1")
    t.connect("s0", "s1")
    t.connect("s0", "h0")
    t.connect("s1", "h1")
    return t


def test_port_numbering_insertion_order():
    t = make_simple()
    ports = t.ports_of("s0")
    assert [p.index for p in ports] == [0, 1]
    assert ports[0].node == "s0"


def test_radix_counts_ports():
    t = make_simple()
    assert t.radix("s0") == 2
    assert t.radix("h0") == 1


def test_duplicate_node_rejected():
    t = Topology("t")
    t.add_switch("x")
    with pytest.raises(TopologyError, match="already exists"):
        t.add_host("x")


def test_self_loop_rejected():
    t = Topology("t")
    t.add_switch("s")
    with pytest.raises(TopologyError, match="self-loop"):
        t.connect("s", "s")


def test_parallel_link_rejected():
    t = make_simple()
    with pytest.raises(TopologyError, match="parallel"):
        t.connect("s0", "s1")


def test_unknown_node_rejected():
    t = make_simple()
    with pytest.raises(TopologyError, match="unknown node"):
        t.connect("s0", "nope")


def test_link_other_and_port_on():
    t = make_simple()
    link = t.link_between("s0", "s1")
    assert link.other("s0") == "s1"
    assert link.port_on("s1").node == "s1"
    with pytest.raises(TopologyError):
        link.other("h0")


def test_switch_and_host_links_partition():
    t = make_simple()
    assert len(t.switch_links) == 1
    assert len(t.host_links) == 2
    assert len(t.links) == 3


def test_host_switch():
    t = make_simple()
    assert t.host_switch("h0") == "s0"
    with pytest.raises(TopologyError):
        t.host_switch("s0")


def test_hosts_of_switch():
    t = make_simple()
    assert t.hosts_of_switch("s0") == ["h0"]


def test_total_switch_ports():
    t = make_simple()
    assert t.total_switch_ports == 2 + 2  # s0 and s1 each radix 2


def test_neighbors():
    t = make_simple()
    assert set(t.neighbors("s0")) == {"s1", "h0"}


def test_validate_detects_dangling_host():
    t = Topology("t")
    t.add_switch("s")
    t.add_host("h")
    with pytest.raises(TopologyError, match="not attached"):
        t.validate()


def test_validate_detects_disconnected():
    t = Topology("t")
    t.add_switch("a")
    t.add_switch("b")
    t.add_host("h")
    t.connect("a", "h")
    with pytest.raises(TopologyError, match="not connected"):
        t.validate()


def test_validate_rejects_host_to_host():
    t = Topology("t")
    t.add_switch("s")
    t.add_host("h1")
    t.add_host("h2")
    t.connect("s", "h1")
    t.connect("h1", "h2")
    with pytest.raises(TopologyError, match="non-switch"):
        t.validate()


def test_switch_neighbors_are_a_fresh_copy():
    t = make_simple()
    nbrs = t.switch_neighbors()
    nbrs["s0"].remove("s1")
    assert t.switch_neighbors()["s0"] == ["s1"]
    assert t.neighbors("s0") == ["s1", "h0"]


def test_switch_neighbors_drop_hosts():
    t = make_simple()
    assert t.switch_neighbors() == {"s0": ["s1"], "s1": ["s0"]}


def test_link_of_port_roundtrip():
    t = make_simple()
    for link in t.links:
        assert t.link_of_port(link.a) is link
        assert t.link_of_port(link.b) is link
