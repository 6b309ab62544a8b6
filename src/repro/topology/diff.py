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
purposes (it can keep its physical cable). A diff also records which
old link each new one keeps (:attr:`TopologyDiff.kept`), so the new
topology can be spliced from the old one
(:meth:`~repro.topology.graph.Topology.spliced`) and its projection
carried over link by link.

:func:`diff_config` reads the diff off a custom config's node and link
lists in one pass when the surviving links keep their old order, which
an edit's config usually does; anything else is built and compared
whole by :func:`diff_topologies`.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, replace

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
    #: per link of the new topology, by index: the index of the old
    #: link it keeps, or -1 for an added link
    kept: tuple[int, ...]
    #: nodes no changed link or node touches whose surviving links got
    #: other port numbers (a reordered link list); empty when the
    #: surviving links keep their old order
    renumbered: frozenset[str]

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

    def rebound_nodes(self) -> set[str]:
        """Nodes whose ports a projection must bind again: the touched
        nodes and the renumbered ones."""
        return self.touched_nodes() | self.renumbered


def _check_kinds(
    old_switches: set[str], old_hosts: set[str],
    new_switches: set[str], new_hosts: set[str],
) -> None:
    crossed = (old_switches & new_hosts) | (old_hosts & new_switches)
    if crossed:
        raise TopologyError(
            f"nodes changed kind between topologies: {sorted(crossed)}"
        )


def diff_topologies(old: Topology, new: Topology) -> TopologyDiff:
    """Node/link add and remove sets taking ``old`` to ``new``.

    A node that changes kind (switch in one, host in the other) is
    rejected: no SDT reconfiguration turns a switch into a computing
    node, and silently treating it as remove+add would alias two
    unrelated resources under one name.
    """
    old_switches, new_switches = set(old.switches), set(new.switches)
    old_hosts, new_hosts = set(old.hosts), set(new.hosts)
    _check_kinds(old_switches, old_hosts, new_switches, new_hosts)
    old_links, new_links = link_keys(old), link_keys(new)
    find = old.find_link
    kept = []
    for link in new.links:
        was = find(link.a.node, link.b.node)
        kept.append(-1 if was is None else was.index)
    diff = TopologyDiff(
        added_switches=frozenset(new_switches - old_switches),
        removed_switches=frozenset(old_switches - new_switches),
        added_hosts=frozenset(new_hosts - old_hosts),
        removed_hosts=frozenset(old_hosts - new_hosts),
        added_links=frozenset(new_links - old_links),
        removed_links=frozenset(old_links - new_links),
        kept=tuple(kept),
        renumbered=frozenset(),
    )
    if not old_links:
        return diff
    # a kept link whose port moved on a node nothing else touched: the
    # new link list is a reordering of the old one there
    old_by_index = old.links
    moved = {
        port.node
        for link, was in zip(new.links, kept)
        if was >= 0
        for port in (link.a, link.b)
        if old_by_index[was].port_on(port.node).index != port.index
    }
    moved -= diff.touched_nodes()
    if not moved:
        return diff
    return replace(diff, renumbered=frozenset(moved))


def diff_config(
    old: Topology,
    switches: Sequence[str],
    hosts: Sequence[str],
    links: Sequence[Sequence[str]],
) -> TopologyDiff | None:
    """The diff taking ``old`` to the topology a custom config lists,
    read off the lists in one pass — or None when it cannot be: a
    surviving link out of ``old``'s order or orientation, or a list the
    builder would refuse (build the config and use
    :func:`diff_topologies`, which also names the builder's error).
    Raises :class:`TopologyError` when a node changes kind."""
    new_switches = dict.fromkeys(switches)
    new_hosts = dict.fromkeys(hosts)
    if (
        len(new_switches) != len(switches)
        or len(new_hosts) != len(hosts)
        or not new_switches.keys().isdisjoint(new_hosts)
    ):
        return None
    old_switches, old_hosts = set(old.switches), set(old.hosts)
    _check_kinds(old_switches, old_hosts, set(new_switches), set(new_hosts))
    known = new_switches.keys() | new_hosts.keys()
    find = old.find_link
    kept: list[int] = []
    added: list[LinkKey] = []
    removed: list[int] = []
    passed = 0  # every old link before this index is kept or removed
    try:
        for a, b in links:
            was = find(a, b)
            if was is None:
                if a == b or a not in known or b not in known:
                    return None
                added.append(link_key(a, b))
                kept.append(-1)
                continue
            index = was.index
            if was.a.node != a:
                return None  # turned around: its ports would swap
            if index != passed:
                if index < passed:
                    return None  # out of the old order
                removed.extend(range(passed, index))
            passed = index + 1
            kept.append(index)
    except (TypeError, ValueError):  # not a list of name pairs
        return None
    old_links = old.links
    removed.extend(range(passed, len(old_links)))
    gone = (old_switches - new_switches.keys()) | (old_hosts - new_hosts.keys())
    removed_set = set(removed)
    for node in gone:
        # a link the config keeps may not outlive its endpoint
        if any(link.index not in removed_set for link in old.links_of(node)):
            return None
    added_keys = frozenset(added)
    if len(added_keys) != len(added):
        return None  # a link listed twice
    return TopologyDiff(
        added_switches=frozenset(new_switches.keys() - old_switches),
        removed_switches=frozenset(old_switches - new_switches.keys()),
        added_hosts=frozenset(new_hosts.keys() - old_hosts),
        removed_hosts=frozenset(old_hosts - new_hosts.keys()),
        added_links=added_keys,
        removed_links=frozenset(
            link_key(*old_links[i].endpoints) for i in removed
        ),
        kept=tuple(kept),
        renumbered=frozenset(),
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
