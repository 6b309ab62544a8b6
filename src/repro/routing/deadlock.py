"""Deadlock analysis: channel dependency graphs (CDG).

Dally's criterion: a routing function is deadlock-free on a lossless
(PFC/credit) network iff its channel dependency graph is acyclic. A
*channel* here is a (directed link, VC) pair; a dependency exists when
a packet can hold one channel while requesting the next.

The SDT controller's Deadlock Avoidance module (§V-3) runs this check
before deploying a route table to a lossless (RoCE/PFC) topology;
:func:`find_cycle` names the offending channel cycle when it refuses.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.routing.table import RouteTable
from repro.topology.graph import Topology
from repro.util.errors import DeadlockError


@dataclass(frozen=True)
class Channel:
    """A directed switch-to-switch link on one virtual channel."""

    src: str
    dst: str
    vc: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.src}->{self.dst}@vc{self.vc}"


def channel_dependency_graph(table: RouteTable) -> nx.DiGraph:
    """Build the CDG by tracing every host pair through ``table``.

    Tracing (rather than statically enumerating rule combinations)
    yields exactly the dependencies reachable in operation, which is
    the correct graph for Dally's criterion under deterministic
    destination-based routing. The delivery hop is left out (a
    destination always drains); hops through *forwarding* hosts
    (BCube) are transit channels like any other.
    """
    topo: Topology = table.topology
    cdg = nx.DiGraph()
    for src in topo.hosts:
        start = src if table.allow_host_forwarding else topo.host_switch(src)
        for dst in topo.hosts:
            if src == dst or not table.has_route(start, dst):
                continue  # unreachable pair (e.g. failed attach link)
            channels = [
                Channel(node, nxt, hop.vc)
                for node, hop, _link, nxt in table.walk(start, dst)
                if nxt != dst
            ]
            cdg.add_nodes_from(channels)
            cdg.add_edges_from(zip(channels, channels[1:]))
    return cdg


def find_cycle(table: RouteTable) -> list[Channel] | None:
    """A channel cycle if one exists, else None."""
    cdg = channel_dependency_graph(table)
    try:
        cycle_edges = nx.find_cycle(cdg)
    except nx.NetworkXNoCycle:
        return None
    return [edge[0] for edge in cycle_edges]


def assert_deadlock_free(table: RouteTable) -> None:
    """Raise :class:`DeadlockError` (with the offending cycle) if the
    route table admits a channel dependency cycle."""
    cycle = find_cycle(table)
    if cycle is not None:
        pretty = " -> ".join(str(c) for c in cycle[:12])
        raise DeadlockError(
            f"channel dependency cycle ({len(cycle)} channels): {pretty}"
        )


def required_vcs(table: RouteTable) -> int:
    """How many distinct VCs the table actually uses (<= table.num_vcs)."""
    used: set[int] = set()
    for _sw, _dst, _in_vc, hop in table.entries():
        used.add(hop.vc)
    return len(used)
