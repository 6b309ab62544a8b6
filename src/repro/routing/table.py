"""Destination-based route tables.

All Table III strategies are *destination-based*: at each logical
switch, the (destination host, incoming virtual channel) pair decides
the outgoing port and VC. That is exactly what compiles into compact
OpenFlow rules (one per sub-switch x destination), so the route table
is the common currency between :mod:`repro.routing` strategies, the
SDT rule synthesizer, and the simulator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.topology.graph import Link, Port, Topology
from repro.util.errors import RoutingError

#: a route longer than this is a forwarding loop
MAX_HOPS = 512


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
    """

    topology: Topology
    num_vcs: int = 1
    #: server-centric topologies (BCube) let *hosts* forward transit
    #: packets between their NICs; set to permit host entries
    allow_host_forwarding: bool = False
    _exact: dict[tuple[str, str, int], Hop] = field(default_factory=dict)
    _wild: dict[tuple[str, str], Hop] = field(default_factory=dict)
    #: per switch, the keys of its wildcard and its exact-VC entries in
    #: :meth:`entries` order: built by the first :meth:`entries_at`,
    #: dropped by every write, shared by a :meth:`repaired` copy
    _keys_at: dict[
        str, tuple[list[tuple[str, str]], list[tuple[str, str, int]]]
    ] | None = field(default=None, init=False, repr=False, compare=False)

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
        self._keys_at = None
        if in_vc is None:
            self._wild[(switch, dst)] = hop
        else:
            self._exact[(switch, dst, in_vc)] = hop

    def next_hop(self, switch: str, dst: str, in_vc: int = 0) -> Hop:
        hop = self._exact.get((switch, dst, in_vc))
        if hop is None:
            hop = self._wild.get((switch, dst))
        if hop is None:
            raise RoutingError(f"no route at {switch!r} for dst {dst!r} vc={in_vc}")
        return hop

    def has_route(self, switch: str, dst: str, in_vc: int = 0) -> bool:
        return (switch, dst, in_vc) in self._exact or (switch, dst) in self._wild

    def entries(self):
        """Iterate (switch, dst, in_vc|None, hop) for rule synthesis."""
        for (sw, dst), hop in self._wild.items():
            yield sw, dst, None, hop
        for (sw, dst, vc), hop in self._exact.items():
            yield sw, dst, vc, hop

    def entries_at(self, switch: str) -> list[tuple[str, str, int | None, Hop]]:
        """:meth:`entries` at one switch, in their order. The first call
        buckets the table's keys by switch; later calls, and a
        :meth:`repaired` copy, reuse the buckets."""
        if self._keys_at is None:
            at: dict[
                str, tuple[list[tuple[str, str]], list[tuple[str, str, int]]]
            ] = {}
            for keys, which in ((self._wild, 0), (self._exact, 1)):
                for key in keys:
                    bucket = at.get(key[0])
                    if bucket is None:
                        bucket = at[key[0]] = ([], [])
                    bucket[which].append(key)  # type: ignore[arg-type]
            self._keys_at = at
        bucket = self._keys_at.get(switch)
        if bucket is None:
            return []
        wild, exact = self._wild, self._exact
        return [
            (switch, key[1], None, wild[key]) for key in bucket[0]
        ] + [
            (switch, key[1], key[2], exact[key]) for key in bucket[1]
        ]

    def repaired(
        self, topology: Topology, hops: dict[tuple, Hop]
    ) -> "RouteTable":
        """A copy of this table on ``topology`` with the entries named
        in ``hops`` replaced: ``(switch, dst)`` keys name VC-wildcard
        entries, ``(switch, dst, in_vc)`` keys exact ones. Every key of
        ``hops`` must already be in the table: keys, and so the
        :meth:`entries` order, are kept, and so are
        :meth:`entries_at`'s buckets."""
        wild = dict(self._wild)
        exact = dict(self._exact)
        for key, hop in hops.items():
            (wild if len(key) == 2 else exact)[key] = hop
        if len(wild) != len(self._wild) or len(exact) != len(self._exact):
            raise RoutingError("a repair may only replace existing entries")
        table = RouteTable(
            topology, self.num_vcs, self.allow_host_forwarding, exact, wild,
        )
        table._keys_at = self._keys_at
        return table

    def __len__(self) -> int:
        return len(self._exact) + len(self._wild)

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
                (exact.get((node, dst, vc)) if exact else None)
                or wild.get((node, dst))
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
