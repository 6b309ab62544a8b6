"""Route-usage pruning for projections.

The paper runs a 4x4x4 Torus (192 switch links -> 384 ports) and a
Dragonfly(4,9,2) on three 64-port switches, which cannot hold every
logical link at two physical ports each. The resolution: with
deterministic destination-based routing and a fixed set of active
computing nodes, only the links *on some route between active hosts*
ever carry traffic, and only those need physical projection ("the SDT
controller calculates the paths ... and then delivers the
corresponding flow tables", §V-2).

:func:`route_usage` traces every active host pair through the route
table and returns the used links/switches/hosts; the projection engine
accepts the result to allocate hardware for the live sub-topology only.
Experiment behaviour is unchanged — unused links carry no packets
either way — while port demand drops to what the paper's rig can hold.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.routing.table import RouteTable
from repro.topology.graph import Topology
from repro.util.errors import ProjectionError


@dataclass(frozen=True)
class UsageSet:
    """Which topology elements a workload can actually touch."""

    links: frozenset[int]  # logical link indices
    switches: frozenset[str]
    hosts: frozenset[str]

    def uses_link(self, index: int) -> bool:
        return index in self.links


def route_usage(
    topology: Topology,
    routes: RouteTable,
    active_hosts: list[str] | None = None,
) -> UsageSet:
    """Trace all active host pairs; collect used links and switches."""
    hosts = list(active_hosts) if active_hosts is not None else topology.hosts
    for h in hosts:
        if not topology.is_host(h):
            raise ProjectionError(f"{h!r} is not a host of {topology.name!r}")

    used_links: set[int] = set()
    used_switches: set[str] = set()
    for src in hosts:
        attach_switch = topology.host_switch(src)
        used_links.add(topology.link_between(attach_switch, src).index)
        used_switches.add(attach_switch)
        for dst in hosts:
            if src == dst:
                continue
            for node, _hop, link, _nxt in routes.walk(attach_switch, dst):
                used_links.add(link.index)
                used_switches.add(node)
    return UsageSet(
        links=frozenset(used_links),
        switches=frozenset(used_switches),
        hosts=frozenset(hosts),
    )


def full_usage(topology: Topology) -> UsageSet:
    """The trivial usage set: everything (no pruning)."""
    return UsageSet(
        links=frozenset(l.index for l in topology.links),
        switches=frozenset(topology.switches),
        hosts=frozenset(topology.hosts),
    )

