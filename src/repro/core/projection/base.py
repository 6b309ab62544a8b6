"""Topology Projection (TP) common machinery.

TP (§III-B) maps a *logical* topology onto physical switch hardware.
All four methods the paper compares (SP, SP-OS, TurboNet, SDT) share
the same result shape: every logical switch becomes a *sub-switch* (a
set of physical ports on one physical switch), every logical link is
realized by some physical resource, and every logical host is bound to
a physical host. :class:`ProjectionResult` captures that mapping; the
engines in the sibling modules differ in *which* physical resource
realizes a link and what a reconfiguration costs.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.hardware.wiring import HostPort, InterSwitchLink, SelfLink
from repro.partition.objective import Partition
from repro.topology.graph import Port, Topology
from repro.util.errors import ProjectionError


@dataclass(frozen=True)
class PhysPort:
    """A physical port: (physical switch name, 1-based port number)."""

    switch: str
    port: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.switch}:{self.port}"


@dataclass
class SubSwitch:
    """The projection of one logical switch onto physical ports.

    ``metadata_id`` is the pipeline tag SDT's table-0 classification
    writes so table-1 rules can scope matches to this sub-switch.
    ``ports`` maps the logical port index to its physical port.
    """

    logical_switch: str
    phys_switch: str
    metadata_id: int
    ports: dict[int, PhysPort] = field(default_factory=dict)

    def phys_port_of(self, logical_port: Port) -> PhysPort:
        if logical_port.node != self.logical_switch:
            raise ProjectionError(
                f"port {logical_port} is not on {self.logical_switch!r}"
            )
        try:
            return self.ports[logical_port.index]
        except KeyError:
            raise ProjectionError(
                f"logical port {logical_port} was never projected"
            ) from None


LinkRealization = SelfLink | InterSwitchLink | HostPort


@dataclass
class ProjectionResult:
    """A complete projection of one logical topology onto hardware."""

    topology: Topology
    partition: Partition  # logical switch -> part index
    part_to_phys: dict[int, str]  # part index -> physical switch name
    subswitches: dict[str, SubSwitch]  # logical switch -> sub-switch
    port_map: dict[Port, PhysPort]  # logical port -> physical port
    host_map: dict[str, str]  # logical host -> physical host
    link_realization: dict[int, LinkRealization]  # logical link idx -> cable
    #: when set, the projection is partial: only the links/hosts a
    #: workload can reach were given hardware (route-usage pruning)
    usage: object | None = None
    #: ``port_map`` inverted: each mapped physical port, as (physical
    #: switch, port number), and its logical port (the first one
    #: ``port_map`` lists, should two share it). Derived at construction
    #: unless given; the allocator passes the one it kept in step, so an
    #: edit checks its new ports against the survivors' without walking
    #: them. Neither map changes after construction: an edit builds a
    #: new result.
    port_owners: dict[tuple[str, int], Port] | None = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.port_owners is None:
            owners: dict[tuple[str, int], Port] = {}
            for lp, pp in self.port_map.items():
                owners.setdefault((pp.switch, pp.port), lp)
            self.port_owners = owners

    @property
    def phys_host_map(self) -> dict[str, str]:
        """Inverse host map: physical host -> logical host."""
        return {p: l for l, p in self.host_map.items()}

    def phys_switch_of(self, logical_switch: str) -> str:
        return self.part_to_phys[self.partition.part_of(logical_switch)]

    def phys_port_of(self, logical_port: Port) -> PhysPort:
        try:
            return self.port_map[logical_port]
        except KeyError:
            raise ProjectionError(
                f"logical port {logical_port} was never projected"
            ) from None

    def _is_used_link(self, index: int) -> bool:
        return self.usage is None or self.usage.uses_link(index)

    def validate(self, switches: Iterable[str] | None = None) -> None:
        """Structural sanity of the sub-switches of the logical
        ``switches`` (default: all of them): each is projected onto the
        physical switch its part owns; each (used) logical port of
        theirs is mapped, to a port on that physical switch which no
        other logical port holds; each used link at them is realized
        and each used host attached to them bound. Ports elsewhere are
        seen only through :attr:`port_owners`, so an edit checks only
        the sub-switches it bound again."""
        topology = self.topology
        if switches is None:
            switches = topology.switches
        owners = self.port_owners
        used_hosts = None if self.usage is None else set(self.usage.hosts)
        for sw in switches:
            sub = self.subswitches.get(sw)
            if sub is None:
                raise ProjectionError(f"logical switch {sw!r} not projected")
            expected_phys = self.phys_switch_of(sw)
            if sub.phys_switch != expected_phys:
                raise ProjectionError(
                    f"sub-switch {sw!r} on {sub.phys_switch!r} but partition "
                    f"says {expected_phys!r}"
                )
            for link in topology.links_of(sw):
                lp = link.port_on(sw)
                used = self._is_used_link(link.index)
                pp = self.port_map.get(lp)
                if pp is None:
                    if used:
                        raise ProjectionError(f"logical port {lp} unmapped")
                    continue
                if pp.switch != sub.phys_switch:
                    raise ProjectionError(
                        f"logical port {lp} mapped off-switch to {pp}"
                    )
                holder = owners.get((pp.switch, pp.port))
                if holder is not lp and holder != lp:
                    raise ProjectionError(
                        f"physical port {pp} mapped twice ({holder} and {lp})"
                    )
                if used and link.index not in self.link_realization:
                    raise ProjectionError(f"logical link {link} not realized")
                host = link.other(sw)
                if (
                    topology.is_host(host)
                    and (used_hosts is None or host in used_hosts)
                    and host not in self.host_map
                ):
                    raise ProjectionError(f"logical host {host!r} not bound")

    # --- summary ----------------------------------------------------------
    def stats(self) -> dict[str, int]:
        self_links = sum(
            1 for r in self.link_realization.values() if isinstance(r, SelfLink)
        )
        inter = sum(
            1
            for r in self.link_realization.values()
            if isinstance(r, InterSwitchLink)
        )
        hosts = sum(
            1 for r in self.link_realization.values() if isinstance(r, HostPort)
        )
        return {
            "logical_switches": len(self.topology.switches),
            "logical_links": len(self.topology.links),
            "self_links_used": self_links,
            "inter_switch_links_used": inter,
            "host_ports_used": hosts,
        }


def inter_switch_link_demand(
    topology: Topology, partition: Partition, usage=None
) -> dict[tuple[int, int], int]:
    """Eq. 2 of §IV-B: inter-switch links needed per physical switch
    pair — the logical links whose endpoints land in different parts.
    ``usage`` (a :class:`~repro.core.projection.pruning.UsageSet`)
    restricts the count to links a workload can actually touch."""
    demand: dict[tuple[int, int], int] = {}
    for link in topology.switch_links:
        if usage is not None and not usage.uses_link(link.index):
            continue
        pa = partition.part_of(link.a.node)
        pb = partition.part_of(link.b.node)
        if pa != pb:
            key = (min(pa, pb), max(pa, pb))
            demand[key] = demand.get(key, 0) + 1
    return demand


def self_link_demand(
    topology: Topology, partition: Partition, usage=None
) -> dict[int, int]:
    """Self-links needed per part: logical switch-switch links internal
    to that part (E_s per sub-topology, Eq. 1)."""
    demand: dict[int, int] = {}
    for link in topology.switch_links:
        if usage is not None and not usage.uses_link(link.index):
            continue
        pa = partition.part_of(link.a.node)
        pb = partition.part_of(link.b.node)
        if pa == pb:
            demand[pa] = demand.get(pa, 0) + 1
    return demand


def host_port_demand(
    topology: Topology, partition: Partition, usage=None
) -> dict[int, int]:
    """Host ports needed per part (E_n per sub-topology, Eq. 1)."""
    demand: dict[int, int] = {}
    for link in topology.host_links:
        if usage is not None and not usage.uses_link(link.index):
            continue
        sw = link.a.node if topology.is_switch(link.a.node) else link.b.node
        p = partition.part_of(sw)
        demand[p] = demand.get(p, 0) + 1
    return demand
