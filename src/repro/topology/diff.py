"""Logical-topology diffing for incremental reconfiguration.

SDT's reconfiguration story is "push new flow tables" — and when the
*logical* topology barely changes, the new flow tables barely change
either. :func:`diff_topologies` computes exactly what changed between
two logical topologies so the controller can recompile only the dirty
sub-switches and stage only the rule delta (DESIGN.md §5b).

Links are identified by their unordered endpoint-name pair: the
:class:`~repro.topology.graph.Topology` builder rejects parallel links
and self-loops, so a pair names at most one link in each topology.
Port *indices* are deliberately ignored — rebuilding a topology with
one link removed renumbers every later port, but the surviving link
between the same two nodes is still "the same link" for projection
purposes (it can keep its physical cable).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.topology.graph import Topology, bridges
from repro.util.errors import TopologyError

#: a link's identity across topology versions: sorted endpoint names
LinkKey = tuple[str, str]


def link_key(a: str, b: str) -> LinkKey:
    """The order-independent identity of link ``a``--``b``."""
    return (a, b) if a <= b else (b, a)


def link_keys(topology: Topology) -> set[LinkKey]:
    """Every link of ``topology`` as an endpoint-pair key."""
    return {link_key(*link.endpoints) for link in topology.links}


@dataclass(frozen=True)
class TopologyDiff:
    """What changed between an old and a new logical topology."""

    added_switches: frozenset[str]
    removed_switches: frozenset[str]
    added_hosts: frozenset[str]
    removed_hosts: frozenset[str]
    added_links: frozenset[LinkKey]
    removed_links: frozenset[LinkKey]

    def is_empty(self) -> bool:
        """True when the topologies are structurally identical."""
        return not (
            self.added_switches
            or self.removed_switches
            or self.added_hosts
            or self.removed_hosts
            or self.added_links
            or self.removed_links
        )

    @property
    def num_changes(self) -> int:
        """Total node + link edits (the |delta| reconfiguration cost
        should scale with)."""
        return (
            len(self.added_switches)
            + len(self.removed_switches)
            + len(self.added_hosts)
            + len(self.removed_hosts)
            + len(self.added_links)
            + len(self.removed_links)
        )

    def touched_nodes(self) -> set[str]:
        """Nodes whose local wiring changed: endpoints of every changed
        link plus every added/removed node. These seed the dirty set
        for incremental recompilation."""
        nodes: set[str] = set()
        for a, b in self.added_links | self.removed_links:
            nodes.add(a)
            nodes.add(b)
        nodes |= self.added_switches | self.removed_switches
        nodes |= self.added_hosts | self.removed_hosts
        return nodes


def diff_topologies(old: Topology, new: Topology) -> TopologyDiff:
    """Node/link add and remove sets taking ``old`` to ``new``.

    A node that changes kind (switch in one, host in the other) is
    rejected: no SDT reconfiguration turns a switch into a computing
    node, and silently treating it as remove+add would alias two
    unrelated resources under one name.
    """
    old_switches, new_switches = set(old.switches), set(new.switches)
    old_hosts, new_hosts = set(old.hosts), set(new.hosts)
    crossed = (old_switches & new_hosts) | (old_hosts & new_switches)
    if crossed:
        raise TopologyError(
            f"nodes changed kind between topologies: {sorted(crossed)}"
        )
    old_links, new_links = link_keys(old), link_keys(new)
    return TopologyDiff(
        added_switches=frozenset(new_switches - old_switches),
        removed_switches=frozenset(old_switches - new_switches),
        added_hosts=frozenset(new_hosts - old_hosts),
        removed_hosts=frozenset(old_hosts - new_hosts),
        added_links=frozenset(new_links - old_links),
        removed_links=frozenset(old_links - new_links),
    )


# --- topology editing helpers ---------------------------------------------

def rebuild(
    topology: Topology,
    *,
    drop_links: set[LinkKey] | None = None,
    add_links: list[tuple[str, str]] | None = None,
    name: str | None = None,
) -> Topology:
    """A fresh :class:`Topology` equal to ``topology`` with some links
    dropped and/or added (the canonical "1-link edit" of the
    reconfiguration benchmarks). Surviving links keep their relative
    insertion order, so the rebuild is deterministic."""
    drop = drop_links or set()
    edited = Topology(name if name is not None else topology.name)
    for sw in topology.switches:
        edited.add_switch(sw)
    for h in topology.hosts:
        edited.add_host(h)
    for link in topology.links:
        if link_key(*link.endpoints) not in drop:
            edited.connect(link.a.node, link.b.node)
    for a, b in add_links or []:
        edited.connect(a, b)
    return edited


def removable_switch_links(topology: Topology) -> list[LinkKey]:
    """Switch-switch links whose removal keeps the topology connected
    (candidates for single-link-edit experiments)."""
    adjacency = {node: topology.neighbors(node) for node in topology.nodes}
    cut = {link_key(a, b) for a, b in bridges(adjacency)}
    return [
        key
        for link in topology.switch_links
        if (key := link_key(*link.endpoints)) not in cut
    ]
