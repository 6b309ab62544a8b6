"""The routing-protocol plug-in interface and its three built-ins."""

from collections import Counter

import pytest

from repro.openflow import ControlChannel, OpenFlowSwitch
from repro.routing.protocols import (
    RoutingProtocol,
    protocol,
    register_protocol,
    registered_protocols,
)
from repro.routing.protocols.distvec import DistanceVectorProtocol
from repro.routing.protocols.precomputed import modeled_push_time
from repro.topology import chain, fat_tree
from repro.topology.diff import removable_switch_links
from repro.topology.zoo import build_zoo_topology, zoo_entry
from repro.util.errors import RoutingError


def _fail_one_link(topo):
    """Index of some switch-switch link whose loss keeps the graph
    connected (fat-tree/chain have plenty)."""
    removable = removable_switch_links(topo)
    assert removable, "no non-bridge link"
    return topo.link_between(*removable[0]).index


# --- registry ---------------------------------------------------------------

def test_builtins_registered():
    assert registered_protocols() == ["adaptive", "distvec", "precomputed"]


def test_unknown_protocol_raises():
    with pytest.raises(RoutingError):
        protocol("ospf")


def test_register_requires_name():
    with pytest.raises(RoutingError):

        @register_protocol
        class Nameless(RoutingProtocol):  # pragma: no cover - rejected
            def generate_config(self, topology):
                return {}

            def initial_routes(self, topology):
                raise NotImplementedError

            def repair_routes(self, topology, failed_links):
                raise NotImplementedError


# --- the shared contract, across all three built-ins ------------------------

@pytest.mark.parametrize("name", ["precomputed", "distvec", "adaptive"])
def test_initial_routes_cover_all_pairs(name):
    topo = fat_tree(4)
    proto = protocol(name, seed=3)
    outcome = proto.initial_routes(topo)
    assert proto.convergence_detected(outcome)
    assert outcome.convergence.time >= 0
    hosts = sorted(topo.hosts)[:6]
    for src in hosts:
        for dst in hosts:
            if src != dst:
                # trace returns the switch walk src-attach..dst-attach
                path = outcome.routes.trace(src, dst)
                assert path[0] == topo.host_switch(src)
                assert path[-1] == topo.host_switch(dst)


@pytest.mark.parametrize("name", ["precomputed", "distvec", "adaptive"])
def test_repair_avoids_failed_link_in_original_port_space(name):
    topo = fat_tree(4)
    failed = _fail_one_link(topo)
    bad = frozenset(
        (topo.links[failed].a.node, topo.links[failed].b.node)
    )
    proto = protocol(name, seed=3)
    proto.initial_routes(topo)
    outcome = proto.repair_routes(topo, {failed})
    assert outcome.convergence.time > 0
    hosts = sorted(topo.hosts)[:6]
    for src in hosts:
        for dst in hosts:
            if src == dst:
                continue
            # tracing in the *original* topology proves the repaired
            # table still speaks its port numbering
            path = outcome.routes.trace(src, dst)
            for a, b in zip(path, path[1:]):
                assert frozenset((a, b)) != bad, (
                    f"{name}: {src}->{dst} still crosses the dead link"
                )


@pytest.mark.parametrize("name", ["precomputed", "distvec", "adaptive"])
def test_config_summary_is_deterministic(name):
    topo = chain(4)
    one = protocol(name, seed=1).config_summary(topo)
    two = protocol(name, seed=1).config_summary(topo)
    assert one == two
    assert one["stanzas"] == len(topo.switches)
    assert one["bytes"] > 0 and len(one["sha256"]) == 16


# --- protocol-specific behaviour --------------------------------------------

def test_distvec_periodic_vs_triggered_timescales():
    topo = fat_tree(4)
    proto = DistanceVectorProtocol(seed=0)
    cold = proto.initial_routes(topo)
    assert cold.convergence.mode == "periodic"
    # cold convergence paces at the advertisement interval (0.5 s)
    assert cold.convergence.time >= proto.advertise_interval
    repaired = proto.repair_routes(topo, {_fail_one_link(topo)})
    assert repaired.convergence.mode == "triggered"
    # triggered updates settle orders of magnitude faster
    assert repaired.convergence.time < cold.convergence.time / 5
    assert repaired.convergence.messages > 0


def test_distvec_counts_messages():
    topo = chain(4)
    outcome = DistanceVectorProtocol(seed=0).initial_routes(topo)
    # every switch advertises to every neighbor each round
    assert outcome.convergence.messages >= outcome.convergence.rounds


def test_adaptive_local_repair_on_wan():
    # a mesh-y WAN leaves room for pure endpoint re-selection
    topo = build_zoo_topology(zoo_entry("UsCarrier"))
    for i in range(4):
        topo.connect(topo.add_host(f"c{i}"), sorted(topo.switches)[i])
    proto = protocol("adaptive", seed=7)
    proto.initial_routes(topo)
    outcome = proto.repair_routes(topo, {_fail_one_link(topo)})
    assert outcome.convergence.mode in ("local-repair", "recomputed")
    if outcome.convergence.mode == "local-repair":
        assert outcome.convergence.messages == 0


def test_precomputed_reports_modeled_push_time():
    topo = fat_tree(4)
    proto = protocol("precomputed", seed=0)
    outcome = proto.initial_routes(topo)
    assert outcome.convergence.messages > 0  # flow-mods pushed
    assert outcome.convergence.time > 0


def test_modeled_push_time_is_the_control_channels_model():
    routes = protocol("precomputed", seed=0).initial_routes(fat_tree(4)).routes
    per_switch = Counter(switch for switch, _d, _v, _h in routes.entries())
    channel = ControlChannel(OpenFlowSwitch("probe", 4))
    assert modeled_push_time(routes) == (
        max(per_switch.values()) * channel.flow_install_latency + channel.rtt,
        sum(per_switch.values()),
    )


def test_live_neighbors_masks_failed_links():
    topo = chain(3)  # s0-s1-s2
    link = next(
        l for l in topo.switch_links
        if {l.a.node, l.b.node} == {"s0", "s1"}
    )
    assert "s1" in RoutingProtocol.live_neighbors(topo, "s0", set())
    assert "s1" not in RoutingProtocol.live_neighbors(
        topo, "s0", {link.index}
    )
