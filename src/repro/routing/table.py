"""Destination-based route tables.

All Table III strategies are *destination-based*: at each logical
switch, the (destination host, incoming virtual channel) pair decides
the outgoing port and VC. That is exactly what compiles into compact
OpenFlow rules (one per sub-switch x destination), so the route table
is the common currency between :mod:`repro.routing` strategies, the
SDT rule synthesizer, and the simulator.

A table is stored the way its readers read it, switch by switch: rule
synthesis compiles one sub-switch from its switch's entries, and a
packet is forwarded by one switch's lookup. No tuple-keyed copy of the
table exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Mapping, Sequence

from repro.topology.graph import Link, Port, Topology
from repro.util.errors import RoutingError

#: a route longer than this is a forwarding loop
MAX_HOPS = 512

#: the entries of a kind at a switch that has none (never written)
_NONE: Mapping = {}


@dataclass(frozen=True)
class Hop:
    """One forwarding decision: leave via ``port`` on VC ``vc``."""

    port: Port
    vc: int = 0


@dataclass
class RouteTable:
    """Maps (switch, dst host, in-VC) to a :class:`Hop`.

    Entries with ``in_vc=None`` are VC wildcards (match any incoming
    VC); exact-VC entries take precedence. ``num_vcs`` records how many
    VCs the strategy needs (1 = no deadlock VCs).

    The table is stored per switch, the way rule synthesis and packet
    forwarding read it: each switch's wildcard entries map destination
    -> hop, its exact ones (destination, in-VC) -> hop, each in
    :meth:`entries` order. That order — every wildcard entry, then
    every exact one, each in the order first written — is kept as runs
    of one destination's nodes: :func:`~repro.routing.strategies.build_routes`
    hands every host on one switch the same run of steps.
    """

    topology: Topology
    num_vcs: int = 1
    #: server-centric topologies (BCube) let *hosts* forward transit
    #: packets between their NICs; set to permit host entries
    allow_host_forwarding: bool = False
    #: per switch, its VC-wildcard entries: dst -> hop
    _wild: dict[str, dict[str, Hop]] = field(default_factory=dict)
    #: per switch, its exact-VC entries: (dst, in_vc) -> hop
    _exact: dict[str, dict[tuple[str, int], Hop]] = field(default_factory=dict)
    #: the :meth:`entries` order, as runs ``(dst, switches, (switch,
    #: in_vc) pairs)`` of one destination's wildcard and exact entries;
    #: :meth:`set_hop` extends its own runs' lists in place, and
    #: :meth:`repaired` hands its copy tuples
    _order: list[tuple[str, Sequence[str], Sequence[tuple[str, int]]]] = field(
        default_factory=list, compare=False, repr=False
    )
    #: ids of the per-switch maps no other table shares: only these are
    #: written in place, every other one is copied on its first write
    _owned: set[int] = field(
        default_factory=set, init=False, compare=False, repr=False
    )

    def set_hop(
        self, switch: str, dst: str, hop: Hop, *, in_vc: int | None = None
    ) -> None:
        if not self.topology.is_switch(switch) and not (
            self.allow_host_forwarding and self.topology.is_host(switch)
        ):
            raise RoutingError(f"{switch!r} is not a switch")
        if hop.port.node != switch:
            raise RoutingError(
                f"hop port {hop.port} does not belong to switch {switch!r}"
            )
        if not 0 <= hop.vc < self.num_vcs:
            raise RoutingError(f"hop VC {hop.vc} out of range (num_vcs={self.num_vcs})")
        maps, key = (self._wild, dst) if in_vc is None else (self._exact, (dst, in_vc))
        at = maps.get(switch)
        if at is None or id(at) not in self._owned:
            at = maps[switch] = {} if at is None else dict(at)
            self._owned.add(id(at))
        if key not in at:  # a new entry: last in its kind's order
            order = self._order
            if not order or order[-1][0] != dst or type(order[-1][1]) is not list:
                order.append((dst, [], []))
            if in_vc is None:
                order[-1][1].append(switch)  # type: ignore[union-attr]
            else:
                order[-1][2].append((switch, in_vc))  # type: ignore[union-attr]
        at[key] = hop

    def next_hop(self, switch: str, dst: str, in_vc: int = 0) -> Hop:
        at = self._exact.get(switch)
        hop = at.get((dst, in_vc)) if at else None
        if hop is None:
            at = self._wild.get(switch)
            hop = at.get(dst) if at else None
        if hop is None:
            raise RoutingError(f"no route at {switch!r} for dst {dst!r} vc={in_vc}")
        return hop

    def has_route(self, switch: str, dst: str, in_vc: int = 0) -> bool:
        return (
            (dst, in_vc) in self._exact.get(switch, _NONE)
            or dst in self._wild.get(switch, _NONE)
        )

    def entries(self) -> Iterator[tuple[str, str, int | None, Hop]]:
        """Iterate (switch, dst, in_vc|None, hop) for rule synthesis."""
        wild, exact = self._wild, self._exact
        for dst, switches, _pairs in self._order:
            for sw in switches:
                yield sw, dst, None, wild[sw][dst]
        for dst, _switches, pairs in self._order:
            for sw, vc in pairs:
                yield sw, dst, vc, exact[sw][dst, vc]

    def maps_at(
        self, switch: str
    ) -> tuple[Mapping[str, Hop], Mapping[tuple[str, int], Hop]]:
        """``switch``'s entries as the table holds them: its wildcard
        entries by destination and its exact ones by (destination,
        in-VC), each in :meth:`entries` order. These are the table's own
        maps: read them, never write them."""
        return self._wild.get(switch, _NONE), self._exact.get(switch, _NONE)

    def entries_at(self, switch: str) -> list[tuple[str, str, int | None, Hop]]:
        """:meth:`entries` at one switch, in their order."""
        wild, exact = self.maps_at(switch)
        return [(switch, dst, None, hop) for dst, hop in wild.items()] + [
            (switch, dst, vc, hop) for (dst, vc), hop in exact.items()
        ]

    def repaired(
        self, topology: Topology, hops: dict[tuple, Hop]
    ) -> "RouteTable":
        """A copy of this table on ``topology`` with the entries named
        in ``hops`` replaced: ``(switch, dst)`` keys name VC-wildcard
        entries, ``(switch, dst, in_vc)`` keys exact ones. Every key of
        ``hops`` must already be in the table: keys, and so the
        :meth:`entries` order, are kept. Only the maps of the switches
        it changes are copied; the rest are shared, and each table
        copies a shared map before its first write to it."""
        wild, exact = dict(self._wild), dict(self._exact)
        owned: set[int] = set()
        for key, hop in hops.items():
            maps, entry = (wild, key[1]) if len(key) == 2 else (exact, key[1:])
            at = maps.get(key[0])
            if at is None or entry not in at:
                raise RoutingError("a repair may only replace existing entries")
            if id(at) not in owned:
                at = maps[key[0]] = dict(at)
                owned.add(id(at))
            at[entry] = hop
        self._owned.clear()  # every map of this table is shared now
        table = RouteTable(
            topology, self.num_vcs, self.allow_host_forwarding, wild, exact, [
                run if type(run[1]) is tuple else (run[0], tuple(run[1]), tuple(run[2]))
                for run in self._order
            ],
        )
        table._owned = owned
        return table

    def __len__(self) -> int:
        return sum(map(len, self._wild.values())) + sum(map(len, self._exact.values()))

    # --- path tracing ----------------------------------------------------
    def walk(self, src: str, dst: str) -> Iterator[tuple[str, Hop, Link, str]]:
        """The one route walker: ``(node, hop, link, next node)`` per hop
        from ``src`` toward host ``dst``, the delivery hop last.

        A host ``src`` starts at its attachment switch (at itself when
        hosts forward); a switch ``src`` starts at itself. Raises
        RoutingError on a dead end, an exit into a host other than
        ``dst``, or a loop past :data:`MAX_HOPS`."""
        if src == dst:
            return
        topo = self.topology
        forwarding_hosts = self.allow_host_forwarding
        node = (
            topo.host_switch(src)
            if not forwarding_hosts and topo.is_host(src) else src
        )
        exact, wild = self._exact, self._wild
        vc = 0
        for _ in range(MAX_HOPS):
            # next_hop's lookup inlined (it is most of a walk's cost);
            # a miss falls through to next_hop for its dead-end error
            hop = (
                (exact.get(node, _NONE).get((dst, vc)) if exact else None)
                or wild.get(node, _NONE).get(dst)
                or self.next_hop(node, dst, vc)
            )
            link = topo.link_of_port(hop.port)
            nxt = link.other(node)
            yield node, hop, link, nxt
            if nxt == dst:
                return
            if not (forwarding_hosts or topo.is_switch(nxt)):
                raise RoutingError(
                    f"route at {node} for {dst} exits to wrong host {nxt}"
                )
            node = nxt
            vc = hop.vc
        raise RoutingError(f"routing loop: {src}->{dst} exceeded {MAX_HOPS} hops")

    def trace(self, src_host: str, dst_host: str) -> list[str]:
        """The node sequence a packet follows src->dst (for tests and
        latency math). Raises RoutingError on loops or dead ends."""
        return [node for node, _hop, _link, _nxt in self.walk(src_host, dst_host)]

    def validate_all_pairs(self) -> None:
        """Trace every host pair; raises on any loop/dead-end."""
        hosts = self.topology.hosts
        for src in hosts:
            for dst in hosts:
                if src != dst:
                    self.trace(src, dst)
