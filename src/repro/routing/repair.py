"""Failure-repair routing: up*/down* on the surviving topology.

One of the testbed use-cases the paper's intro motivates is evaluating
fault tolerance. When a logical link fails, the controller must
install detour routes that are still **deadlock-free on a lossless
fabric** — and plain per-destination shortest paths are not: on a torus
with one failed link, the BFS trees collectively wrap rings and the
channel dependency graph acquires a cycle (see
``tests/core/test_failures.py``).

The classical fix (Autonet, InfiniBand) is **up*/down*** routing:

1. order the surviving switches by BFS from a root; an edge's *up*
   direction points toward the smaller (closer-to-root) order;
2. legal paths climb zero or more up edges, then descend zero or more
   down edges — never down-then-up;
3. the CDG is acyclic because up channels only depend on up channels of
   strictly smaller order (and down likewise in reverse).

:func:`reroute_avoiding` computes destination-based up*/down* tables
that avoid the failed links, so the repaired fabric stays PFC-safe with
a single VC. The controller's Deadlock Avoidance module vets the table
before installing it on a lossless fabric, as it does every route
table.
"""

from __future__ import annotations

from collections import deque
from functools import cache

from repro.routing.strategies import Step, Strategy, build_routes
from repro.routing.table import RouteTable
from repro.topology.graph import Topology, bfs_depths
from repro.util.errors import RoutingError

_INF = float("inf")


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

    # adjacency over surviving switch links
    neighbors = topology.switch_neighbors(failed_links)
    order = _switch_order(neighbors)
    # up moves strictly decrease order, so a DP in increasing order of
    # rank sees every up-neighbor before v
    by_rank = sorted(topology.switches, key=lambda s: order[s])

    reachable_hosts = [
        h
        for h in topology.hosts
        if topology.link_between(topology.host_switch(h), h).index
        not in failed_links
    ]

    @cache
    def toward(root_sw: str) -> list[Step]:
        # down_dist[v]: shortest pure-down path v -> root_sw (every hop
        # increases order, i.e. walks away from the up/down root)
        down_dist: dict[str, float] = {root_sw: 0}
        queue = deque([root_sw])
        while queue:
            v = queue.popleft()
            for u in neighbors[v]:
                if order[u] < order[v] and u not in down_dist:
                    down_dist[u] = down_dist[v] + 1
                    queue.append(u)

        # updown_dist[v]: shortest legal (up*, then down*) path length
        updown: dict[str, float] = {}
        for v in by_rank:
            best = down_dist.get(v, _INF)
            for u in neighbors[v]:
                if order[u] < order[v]:  # an up move from v to u
                    best = min(best, updown.get(u, _INF) + 1)
            updown[v] = best

        steps: list[Step] = []
        for sw in topology.switches:
            if sw == root_sw:
                steps.append((sw, None, 0))
                continue
            if updown.get(sw, _INF) == _INF:
                continue  # severed from dst
            if down_dist.get(sw, _INF) == updown[sw]:
                # descend: the down-neighbor one step closer to dst
                cand = [
                    (order[u], u)
                    for u in neighbors[sw]
                    if order[u] > order[sw]
                    and down_dist.get(u, _INF) == down_dist[sw] - 1
                ]
            else:
                # climb: the up-neighbor on a shortest legal path
                cand = [
                    (order[u], u)
                    for u in neighbors[sw]
                    if order[u] < order[sw]
                    and updown.get(u, _INF) + 1 == updown[sw]
                ]
            if not cand:  # pragma: no cover - contradiction with updown
                raise RoutingError(
                    f"internal: no consistent up/down hop at {sw} toward {root_sw}"
                )
            steps.append((sw, min(cand)[1], 0))
        return steps

    reachable = set(reachable_hosts)

    def rule(dst: str) -> list[Step]:
        return toward(topology.host_switch(dst)) if dst in reachable else []

    table = build_routes(topology, Strategy("updown-avoiding", lambda _t: (rule, 1)))

    # every mutually-reachable host pair must still route
    for src in reachable_hosts:
        src_sw = topology.host_switch(src)
        for dst in reachable_hosts:
            if src != dst and not table.has_route(src_sw, dst):
                raise RoutingError(
                    f"failure set severs {src}->{dst}: no surviving path"
                )
    return table
