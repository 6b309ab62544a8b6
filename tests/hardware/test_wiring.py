"""Wiring plan validity and the default layout."""

import pytest

from repro.hardware import (
    HostPort,
    InterSwitchLink,
    SelfLink,
    WiringPlan,
    default_wiring,
)
from repro.util.errors import WiringError


def test_default_wiring_partitions_ports():
    plan = default_wiring(["a", "b"], 16, hosts_per_switch=2,
                          inter_links_per_pair=3)
    plan.validate()
    for sw in ("a", "b"):
        assert len(plan.hosts_of(sw)) == 2
        assert len(plan.inter_links_of(sw)) == 3
        # remaining 11 ports -> 5 self-links, 1 port free
        assert len(plan.self_links_of(sw)) == 5
        assert len(plan.free_ports(sw)) == 1


def test_default_wiring_host_names():
    plan = default_wiring(["a"], 8, hosts_per_switch=3)
    assert plan.hosts == ["node0", "node1", "node2"]


def test_inter_links_between_symmetric():
    plan = default_wiring(["a", "b", "c"], 16, inter_links_per_pair=2)
    assert len(plan.inter_links_between("a", "b")) == 2
    assert len(plan.inter_links_between("b", "a")) == 2
    assert len(plan.inter_links_between("a", "c")) == 2


def test_port_double_use_detected():
    plan = WiringPlan(num_ports={"a": 4})
    plan.self_links.append(SelfLink("a", 1, 2))
    plan.host_ports.append(HostPort("a", 2, "h"))
    with pytest.raises(WiringError, match="used by both"):
        plan.validate()


def test_out_of_range_port_detected():
    plan = WiringPlan(num_ports={"a": 4})
    plan.self_links.append(SelfLink("a", 1, 9))
    with pytest.raises(WiringError, match="out of range"):
        plan.validate()


def test_self_link_same_port_rejected():
    plan = WiringPlan(num_ports={"a": 4})
    plan.self_links.append(SelfLink("a", 2, 2))
    with pytest.raises(WiringError, match="loops one port"):
        plan.validate()


def test_inter_link_same_switch_rejected():
    plan = WiringPlan(num_ports={"a": 4, "b": 4})
    plan.inter_links.append(InterSwitchLink("a", 1, "a", 2))
    with pytest.raises(WiringError, match="within one switch"):
        plan.validate()


def test_host_cabled_twice_rejected():
    plan = WiringPlan(num_ports={"a": 4})
    plan.host_ports.append(HostPort("a", 1, "h"))
    plan.host_ports.append(HostPort("a", 2, "h"))
    with pytest.raises(WiringError, match="cabled twice"):
        plan.validate()


def test_self_link_other():
    sl = SelfLink("a", 3, 4)
    assert sl.other(3) == 4
    assert sl.other(4) == 3
    with pytest.raises(WiringError):
        sl.other(5)


def test_inter_link_endpoints():
    il = InterSwitchLink("a", 1, "b", 2)
    assert il.endpoint_on("a") == 1
    assert il.other_end("a") == ("b", 2)
    with pytest.raises(WiringError):
        il.endpoint_on("c")


def test_host_port_lookup():
    plan = default_wiring(["a"], 8, hosts_per_switch=1)
    hp = plan.host_port("node0")
    assert hp.switch == "a"
    with pytest.raises(WiringError, match="not cabled"):
        plan.host_port("ghost")


def test_used_ports_accounting():
    plan = default_wiring(["a", "b"], 10, hosts_per_switch=1,
                          inter_links_per_pair=1)
    used = plan.used_ports("a")
    assert len(used) + len(plan.free_ports("a")) == 10


def test_queries_equal_a_filter_of_the_lists_while_the_plan_grows():
    """Per-switch and per-pair answers come from an index; a plan that
    is still being cabled after a query must never read a stale one."""
    from dataclasses import replace

    plan = WiringPlan(num_ports={"a": 16, "b": 16})

    def agree():
        for sw in ("a", "b"):
            assert plan.hosts_of(sw) == [
                h for h in plan.host_ports if h.switch == sw
            ]
            assert plan.self_links_of(sw) == [
                s for s in plan.self_links if s.switch == sw
            ]
        for pair in (("a", "b"), ("b", "a"), ("a", "a")):
            assert plan.inter_links_between(*pair) == [
                l for l in plan.inter_links
                if {l.switch_a, l.switch_b} == set(pair)
            ]

    agree()
    plan.host_ports.append(HostPort("a", 1, "h0"))
    agree()
    plan.self_links.append(SelfLink("b", 1, 2))
    plan.inter_links.append(InterSwitchLink("a", 2, "b", 3))
    agree()
    plan.host_ports = [HostPort("b", 4, "h1")]  # a new list, same length
    agree()
    # an answer is a copy: the caller cannot edit the index
    plan.hosts_of("b").clear()
    agree()
    # a plan made from another (the hybrid projector's) has its own
    grown = replace(plan, self_links=[*plan.self_links, SelfLink("a", 5, 6)])
    assert grown.self_links_of("a") == [SelfLink("a", 5, 6)]
    assert plan.self_links_of("a") == []
