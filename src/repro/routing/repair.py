"""Failure-repair routing: up*/down* on the surviving topology.

One of the testbed use-cases the paper's intro motivates is evaluating
fault tolerance. When a logical link fails, the controller must
install detour routes that are still **deadlock-free on a lossless
fabric** — and plain per-destination shortest paths are not: on a torus
with one failed link, the BFS trees collectively wrap rings and the
channel dependency graph acquires a cycle (see
``tests/core/test_failures.py``).

The classical fix (Autonet, InfiniBand) is **up*/down*** routing,
computed by :func:`repro.routing.strategies.updown`, the core that
also routes a fat-tree: the surviving switches are ranked by BFS from
a root, and a legal path climbs toward the root, then descends — never
down-then-up — so the CDG stays acyclic.

:func:`reroute_avoiding` computes destination-based up*/down* tables
that avoid the failed links, so the repaired fabric stays PFC-safe with
a single VC. The controller's Deadlock Avoidance module vets the table
before installing it on a lossless fabric, as it does every route
table.
"""

from __future__ import annotations

from repro.routing.strategies import Step, Strategy, build_routes, updown
from repro.routing.table import RouteTable
from repro.topology.graph import Topology, bfs_depths
from repro.util.errors import RoutingError


def _switch_order(neighbors: dict[str, list[str]]) -> dict[str, int]:
    """BFS rank (level, then name) from a deterministic root over the
    surviving switch graph ``neighbors``; disconnected switches get
    ranks afterwards."""
    switches = sorted(neighbors)
    # root: the highest-degree surviving switch (shortest up paths),
    # name-tiebroken for determinism
    root = max(switches, key=lambda s: (len(neighbors[s]), s))
    level = bfs_depths(root, neighbors)
    ranked = sorted(level, key=lambda s: (level[s], s))
    order = {s: i for i, s in enumerate(ranked)}
    # disconnected remainder (severed islands) ranks after everything
    for s in switches:
        order.setdefault(s, len(order))
    return order


def reroute_avoiding(
    topology: Topology,
    failed_links: set[int],
) -> RouteTable:
    """Destination-based up*/down* routes avoiding ``failed_links``.

    Hosts whose attach link failed become unreachable and get no
    entries (their traffic drops rather than blackholing the fabric).
    Raises :class:`RoutingError` if some still-attached host pair has
    no surviving path at all.
    """
    for idx in failed_links:
        if not 0 <= idx < len(topology.links):
            raise RoutingError(f"no link with index {idx}")

    neighbors = topology.switch_neighbors(failed_links)
    reachable = {  # an ordered set: errors name hosts in topology order
        h: None
        for h in topology.hosts
        if topology.link_between(topology.host_switch(h), h).index
        not in failed_links
    }
    toward = updown(topology, neighbors, _switch_order(neighbors), reachable)

    def rule(dst: str) -> list[Step]:
        if dst not in reachable:
            return []
        root = topology.host_switch(dst)
        hops = toward(root)
        return [
            (sw, None if sw == root else hops[sw][0], 0)
            for sw in topology.switches
            if sw == root or sw in hops
        ]

    return build_routes(topology, Strategy("updown-avoiding", lambda _t: (rule, 1)))
