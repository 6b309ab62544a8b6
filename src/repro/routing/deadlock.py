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


def channel_dependency_graph(
    table: RouteTable,
) -> dict[Channel, dict[Channel, None]]:
    """Build the CDG by tracing every host pair through ``table``.

    Tracing (rather than statically enumerating rule combinations)
    yields exactly the dependencies reachable in operation, which is
    the correct graph for Dally's criterion under deterministic
    destination-based routing. The delivery hop is left out (a
    destination always drains); hops through *forwarding* hosts
    (BCube) are transit channels like any other.

    A walk starts at the source's switch, or at the source host itself
    when hosts forward, and each distinct (start, destination) pair is
    walked once. The result maps each channel to its successors, both
    in the order the walks first reach them.
    """
    topo: Topology = table.topology
    hosts = topo.hosts
    cdg: dict[Channel, dict[Channel, None]] = {}
    walked: dict[tuple[str, str], None] = {}
    for src in hosts:
        start = src if table.allow_host_forwarding else topo.host_switch(src)
        for dst in hosts:
            if src == dst or (start, dst) in walked:
                continue
            if not table.has_route(start, dst):
                continue  # unreachable pair (e.g. failed attach link)
            walked[(start, dst)] = None
            held = None
            for node, hop, _link, nxt in table.walk(start, dst):
                if nxt == dst:
                    break
                channel = Channel(node, nxt, hop.vc)
                cdg.setdefault(channel, {})
                if held is not None:
                    cdg[held][channel] = None
                held = channel
    return cdg


def find_cycle(table: RouteTable) -> list[Channel] | None:
    """A channel cycle if one exists, else None.

    An iterative three-colour depth-first search over the CDG in its
    own order; the cycle runs from the first channel the search
    re-entered, so it is the same in every process.
    """
    cdg = channel_dependency_graph(table)
    # absent: unvisited; >= 0: on the current path, at that index;
    # -1: finished, no cycle through it
    state: dict[Channel, int] = {}
    for root in cdg:
        if root in state:
            continue
        state[root] = 0
        path = [root]
        stack = [iter(cdg[root])]
        while stack:
            for nxt in stack[-1]:
                at = state.get(nxt)
                if at is None:
                    state[nxt] = len(path)
                    path.append(nxt)
                    stack.append(iter(cdg[nxt]))
                    break
                if at >= 0:
                    return path[at:]
            else:
                stack.pop()
                state[path.pop()] = -1
    return None


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
