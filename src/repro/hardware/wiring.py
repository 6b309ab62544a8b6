"""Physical wiring plans.

Once an SDT testbed is cabled it never changes (§IV-A): every physical
port is either

* half of a **self-link** (a loop cable between two ports of the same
  switch; the paper uses vertically adjacent front-panel ports),
* an endpoint of an **inter-switch link** (a cable between two physical
  switches, §IV-B), or
* a **host port** (cabled to a server NIC).

:class:`WiringPlan` records that assignment and validates it (each port
used exactly once, everything in range). The default layout mirrors
the paper: host ports first, then inter-switch links, then all
remaining ports paired off as self-links.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.util.errors import WiringError


@dataclass(frozen=True)
class SelfLink:
    """A loop cable on one switch between ``port_a`` and ``port_b``."""

    switch: str
    port_a: int
    port_b: int

    def other(self, port: int) -> int:
        if port == self.port_a:
            return self.port_b
        if port == self.port_b:
            return self.port_a
        raise WiringError(f"port {port} not on self-link {self}")


@dataclass(frozen=True)
class InterSwitchLink:
    """A cable between two physical switches."""

    switch_a: str
    port_a: int
    switch_b: str
    port_b: int

    def endpoint_on(self, switch: str) -> int:
        if switch == self.switch_a:
            return self.port_a
        if switch == self.switch_b:
            return self.port_b
        raise WiringError(f"switch {switch} not on inter-switch link {self}")

    def other_end(self, switch: str) -> tuple[str, int]:
        if switch == self.switch_a:
            return (self.switch_b, self.port_b)
        if switch == self.switch_b:
            return (self.switch_a, self.port_a)
        raise WiringError(f"switch {switch} not on inter-switch link {self}")


@dataclass(frozen=True)
class HostPort:
    """A cable from a switch port to a host NIC."""

    switch: str
    port: int
    host: str


@dataclass(frozen=True)
class FlexPort:
    """A switch port patched into an optical circuit switch (§VII-A).

    The OCS can circuit two flex ports together on demand, turning the
    pair into an extra self-link (same switch) or inter-switch link
    (different switches) without anyone touching a cable."""

    switch: str
    port: int
    ocs_port: int


@dataclass
class WiringPlan:
    """The complete, fixed cabling of an SDT deployment."""

    num_ports: dict[str, int]  # switch name -> port count
    self_links: list[SelfLink] = field(default_factory=list)
    inter_links: list[InterSwitchLink] = field(default_factory=list)
    host_ports: list[HostPort] = field(default_factory=list)
    flex_ports: list[FlexPort] = field(default_factory=list)
    #: the cable lists the index was built from, their lengths, and the
    #: index (see :meth:`_index`)
    _indexed: tuple | None = field(
        default=None, init=False, repr=False, compare=False
    )

    # --- queries -------------------------------------------------------
    @property
    def switches(self) -> list[str]:
        return list(self.num_ports)

    def _index(self) -> tuple[dict, dict, dict]:
        """Self-links and host ports per switch, and inter-switch links
        per switch pair. A plan's lists only grow while it is being
        cabled (:func:`default_wiring` appends, then validates), so the
        index is rebuilt whenever a list is another object or another
        length than when it was built: a plan still being appended to
        never reads a stale one."""
        lists = (self.self_links, self.inter_links, self.host_ports)
        sizes = tuple(map(len, lists))
        held = self._indexed
        if (
            held is not None
            and held[1] == sizes
            and all(a is b for a, b in zip(held[0], lists))
        ):
            return held[2]
        selfs: dict[str, list[SelfLink]] = {}
        for s in self.self_links:
            selfs.setdefault(s.switch, []).append(s)
        pairs: dict[frozenset, list[InterSwitchLink]] = {}
        for l in self.inter_links:
            pairs.setdefault(frozenset((l.switch_a, l.switch_b)), []).append(l)
        hosts: dict[str, list[HostPort]] = {}
        for h in self.host_ports:
            hosts.setdefault(h.switch, []).append(h)
        index = selfs, pairs, hosts
        self._indexed = (lists, sizes, index)
        return index

    def self_links_of(self, switch: str) -> list[SelfLink]:
        return list(self._index()[0].get(switch, ()))

    def inter_links_between(self, a: str, b: str) -> list[InterSwitchLink]:
        return list(self._index()[1].get(frozenset((a, b)), ()))

    def inter_links_of(self, switch: str) -> list[InterSwitchLink]:
        return [
            l for l in self.inter_links if switch in (l.switch_a, l.switch_b)
        ]

    def hosts_of(self, switch: str) -> list[HostPort]:
        return list(self._index()[2].get(switch, ()))

    def flex_ports_of(self, switch: str) -> list[FlexPort]:
        return [f for f in self.flex_ports if f.switch == switch]

    @property
    def hosts(self) -> list[str]:
        return [h.host for h in self.host_ports]

    def host_port(self, host: str) -> HostPort:
        for hp in self.host_ports:
            if hp.host == host:
                return hp
        raise WiringError(f"host {host!r} not cabled")

    def used_ports(self, switch: str) -> set[int]:
        used: set[int] = set()
        for s in self.self_links_of(switch):
            used.update((s.port_a, s.port_b))
        for l in self.inter_links_of(switch):
            used.add(l.endpoint_on(switch))
        for h in self.hosts_of(switch):
            used.add(h.port)
        for f in self.flex_ports_of(switch):
            used.add(f.port)
        return used

    def free_ports(self, switch: str) -> list[int]:
        used = self.used_ports(switch)
        return [p for p in range(1, self.num_ports[switch] + 1) if p not in used]

    # --- validation ------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`WiringError` on port reuse or out-of-range ports."""
        seen: dict[tuple[str, int], str] = {}

        def claim(switch: str, port: int, what: str) -> None:
            if switch not in self.num_ports:
                raise WiringError(f"{what}: unknown switch {switch!r}")
            if not 1 <= port <= self.num_ports[switch]:
                raise WiringError(
                    f"{what}: port {port} out of range on {switch} "
                    f"(1..{self.num_ports[switch]})"
                )
            key = (switch, port)
            if key in seen:
                raise WiringError(
                    f"port {switch}:{port} used by both {seen[key]} and {what}"
                )
            seen[key] = what

        for s in self.self_links:
            if s.port_a == s.port_b:
                raise WiringError(f"self-link on {s.switch} loops one port")
            claim(s.switch, s.port_a, f"self-link {s}")
            claim(s.switch, s.port_b, f"self-link {s}")
        for l in self.inter_links:
            if l.switch_a == l.switch_b:
                raise WiringError(
                    f"inter-switch link within one switch {l.switch_a} "
                    "(use a self-link)"
                )
            claim(l.switch_a, l.port_a, f"inter-link {l}")
            claim(l.switch_b, l.port_b, f"inter-link {l}")
        hosts_seen: set[str] = set()
        for h in self.host_ports:
            claim(h.switch, h.port, f"host {h.host}")
            if h.host in hosts_seen:
                raise WiringError(f"host {h.host!r} cabled twice")
            hosts_seen.add(h.host)
        ocs_seen: set[int] = set()
        for f in self.flex_ports:
            claim(f.switch, f.port, f"flex port {f}")
            if f.ocs_port in ocs_seen:
                raise WiringError(f"OCS port {f.ocs_port} patched twice")
            ocs_seen.add(f.ocs_port)


def default_wiring(
    switch_names: list[str],
    num_ports: int,
    *,
    hosts_per_switch: int = 0,
    inter_links_per_pair: int = 0,
    flex_ports_per_switch: int = 0,
    host_name_fmt: str = "node{index}",
) -> WiringPlan:
    """The paper's standard layout for a fresh SDT deployment.

    Port allocation per switch: host ports first, then the endpoints of
    the inter-switch mesh (``inter_links_per_pair`` cables between every
    switch pair, §IV-B's reservation), then ``flex_ports_per_switch``
    ports patched into an optical switch (§VII-A, optional), then every
    remaining pair of adjacent ports cabled as a self-link (footnote 2).
    """
    plan = WiringPlan(num_ports={s: num_ports for s in switch_names})
    cursor = {s: 1 for s in switch_names}

    index = 0
    for s in switch_names:
        for _ in range(hosts_per_switch):
            plan.host_ports.append(
                HostPort(s, cursor[s], host_name_fmt.format(index=index))
            )
            cursor[s] += 1
            index += 1

    for i, a in enumerate(switch_names):
        for b in switch_names[i + 1 :]:
            for _ in range(inter_links_per_pair):
                plan.inter_links.append(
                    InterSwitchLink(a, cursor[a], b, cursor[b])
                )
                cursor[a] += 1
                cursor[b] += 1

    ocs_port = 1
    for s in switch_names:
        for _ in range(flex_ports_per_switch):
            plan.flex_ports.append(FlexPort(s, cursor[s], ocs_port))
            cursor[s] += 1
            ocs_port += 1

    for s in switch_names:
        while cursor[s] + 1 <= num_ports:
            plan.self_links.append(SelfLink(s, cursor[s], cursor[s] + 1))
            cursor[s] += 2

    plan.validate()
    return plan
