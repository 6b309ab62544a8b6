"""Network builders: logical (full testbed / simulator) and projected (SDT).

Both builders produce a :class:`Network` — a ready event-driven fabric
of :class:`~repro.netsim.node.SwitchNode` / ``HostNode`` — but they
differ in what a "switch" is:

* :func:`build_logical_network` instantiates one simulator switch per
  *logical* switch and forwards by :class:`~repro.routing.table.RouteTable`
  lookup. This is the paper's full testbed (and its simulator, which
  models the same ideal fabric).
* :func:`build_sdt_network` instantiates one simulator switch per
  *physical* switch of a deployed SDT cluster and forwards every packet
  through the **actual emulated OpenFlow pipeline** the controller
  installed — self-links and inter-switch cables included — plus the
  small crossbar-load overhead projection introduces (§VI-B).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING

from repro.hardware.cluster import PhysicalCluster
from repro.netsim.linkquality import LinkQuality, LinkQualityProfile

if TYPE_CHECKING:  # avoid a runtime cycle: controller -> routing -> netsim
    from repro.core.controller.controller import Deployment
from repro.netsim.engine import Simulator
from repro.netsim.node import HostNode, SwitchNode
from repro.netsim.packet import Packet
from repro.netsim.port import PortConfig
from repro.routing.table import RouteTable
from repro.topology.graph import Topology
from repro.util.errors import RoutingError, SimulationError
from repro.util.rng import make_rng
from repro.util.units import NANOSECONDS, gbps


@dataclass
class NetworkConfig:
    """Fabric-wide knobs shared by both builders."""

    link_rate: float = gbps(10)
    cable_delay: float = 100 * NANOSECONDS  # inter-switch / host cables
    self_link_delay: float = 100 * NANOSECONDS  # loop cables (SDT)
    proc_delay: float = 400 * NANOSECONDS  # switch pipeline latency
    #: SDT crossbar-load overhead per traversal; calibrated so the 8-hop
    #: pingpong overhead peaks at the paper's ~1.6% and decays with
    #: message length (Fig. 11)
    sdt_extra_delay: float = 12 * NANOSECONDS
    pfc_enabled: bool = True
    ecn_enabled: bool = True
    cut_through: bool = True
    #: when set, switches pay one extra bookkeeping event per
    #: ``detail_flit_bytes`` of every forwarded packet — the per-flit
    #: router-pipeline work a BookSim-style detailed simulator performs.
    #: Behaviour (ACT) is unchanged; only simulation cost grows, which is
    #: exactly the "simulator arm" of Table IV / Fig. 13.
    detail_flit_bytes: int | None = None
    #: per-link impairments (loss / jitter / asymmetric bandwidth); the
    #: logical builder honors per-link overrides, the SDT builder applies
    #: the profile's default to every physical port
    link_quality: LinkQualityProfile | None = None
    seed: int = 0

    def port_config(self, *, prop_delay: float | None = None) -> PortConfig:
        return PortConfig(
            rate=self.link_rate,
            prop_delay=self.cable_delay if prop_delay is None else prop_delay,
            pfc_enabled=self.pfc_enabled,
            ecn_enabled=self.ecn_enabled,
            cut_through=self.cut_through,
        )

    def impaired_config(
        self, base: PortConfig, quality: LinkQuality, src: str, dst: str
    ) -> PortConfig:
        """Bake one direction of a link's quality into a port config."""
        if quality.is_ideal:
            return base
        return replace(
            base,
            rate=base.rate * quality.rate_scale(src, dst),
            loss_rate=quality.loss_rate,
            jitter=quality.jitter,
        )


@dataclass
class Network:
    """A built fabric, ready for transports."""

    sim: Simulator
    config: NetworkConfig
    switches: dict[str, SwitchNode]
    hosts: dict[str, HostNode]
    #: transport-level address of each attached host (logical names for
    #: the logical arm, physical node names for the SDT arm)
    kind: str = "logical"
    extras: dict = field(default_factory=dict)

    def host(self, address: str) -> HostNode:
        try:
            return self.hosts[address]
        except KeyError:
            raise SimulationError(f"no host {address!r} in this network") from None

    def total_drops(self) -> int:
        return sum(
            p.drops
            for node in (*self.switches.values(), *self.hosts.values())
            for p in node.ports.values()
        )

    def total_lost(self) -> int:
        """Packets corrupted on the wire by the link-quality model."""
        return sum(
            p.lost
            for node in (*self.switches.values(), *self.hosts.values())
            for p in node.ports.values()
        )


def _connect(node_a, port_a: int, node_b, port_b: int) -> None:
    """Make the two unidirectional transmitters of one full-duplex cable
    point at each other."""
    node_a.ports[port_a].peer = node_b
    node_a.ports[port_a].peer_port = port_b
    node_b.ports[port_b].peer = node_a
    node_b.ports[port_b].peer_port = port_a


# ---------------------------------------------------------------------------
# Logical arm (full testbed / simulator)
# ---------------------------------------------------------------------------

def build_logical_network(
    topology: Topology,
    routes: RouteTable,
    config: NetworkConfig | None = None,
) -> Network:
    """One simulator switch per logical switch; RouteTable forwarding."""
    cfg = config or NetworkConfig()
    sim = Simulator()

    def forward(name: str, in_port: int, packet: Packet):
        try:
            hop = routes.next_hop(name, packet.header.dst, packet.header.vc)
        except RoutingError:
            return None  # unroutable -> drop (table miss)
        return (hop.port.index + 1, hop.vc, hop.vc)

    switches = {
        s: SwitchNode(
            sim,
            s,
            forward,
            make_rng(cfg.seed, "switch", s),
            proc_delay=cfg.proc_delay,
            detail_flit_bytes=cfg.detail_flit_bytes,
        )
        for s in topology.switches
    }
    host_forward = forward if routes.allow_host_forwarding else None
    hosts = {
        h: HostNode(
            sim, h, make_rng(cfg.seed, "host", h), forward_fn=host_forward
        )
        for h in topology.hosts
    }

    pc = cfg.port_config()
    profile = cfg.link_quality
    if profile is not None and profile.is_ideal:
        profile = None  # shared config fast path
    for link in topology.links:
        ends = []
        quality = (
            profile.quality_for(link.a.node, link.b.node)
            if profile is not None
            else None
        )
        for port, other in ((link.a, link.b), (link.b, link.a)):
            node = (
                switches[port.node]
                if topology.is_switch(port.node)
                else hosts[port.node]
            )
            # both switches and (multi-NIC) hosts number ports by the
            # logical port index + 1
            port_no = port.index + 1
            pconf = (
                pc
                if quality is None
                else cfg.impaired_config(pc, quality, port.node, other.node)
            )
            node.add_port(port_no, pconf)
            ends.append((node, port_no))
        _connect(*ends[0], *ends[1])

    return Network(sim=sim, config=cfg, switches=switches, hosts=hosts,
                   kind="logical")


# ---------------------------------------------------------------------------
# SDT arm (projected physical cluster)
# ---------------------------------------------------------------------------

def build_sdt_network(
    cluster: PhysicalCluster,
    deployment: Deployment,
    config: NetworkConfig | None = None,
) -> Network:
    """One simulator switch per *physical* switch; OpenFlow forwarding.

    Only ports engaged by the deployment's projection are instantiated
    (plus both ends of their cables). Packets consult the real flow
    tables, so isolation, metadata tagging and VC rewrites all behave
    exactly as deployed.
    """
    cfg = config or NetworkConfig()
    sim = Simulator()
    projection = deployment.projection

    def forward(name: str, in_port: int, packet: Packet):
        decision = cluster.switches[name].forward(
            in_port, packet.header, packet.size
        )
        if decision.dropped:
            return None
        return (decision.out_ports[0], decision.queue, decision.vc)

    switches = {
        name: SwitchNode(
            sim,
            name,
            forward,
            make_rng(cfg.seed, "phys", name),
            proc_delay=cfg.proc_delay,
            extra_delay=cfg.sdt_extra_delay,
        )
        for name in cluster.switch_names
    }

    pc_cable = cfg.port_config()
    pc_self = cfg.port_config(prop_delay=cfg.self_link_delay)
    if cfg.link_quality is not None and not cfg.link_quality.is_ideal:
        # physical cables don't map 1:1 onto logical links, so the SDT
        # arm applies the profile's default symmetrically to every port
        q = cfg.link_quality.default
        pc_cable = replace(
            pc_cable, rate=pc_cable.rate * q.bandwidth,
            loss_rate=q.loss_rate, jitter=q.jitter,
        )
        pc_self = replace(
            pc_self, rate=pc_self.rate * q.bandwidth,
            loss_rate=q.loss_rate, jitter=q.jitter,
        )

    hosts: dict[str, HostNode] = {}
    wired: set[tuple[str, int]] = set()

    def ensure_port(sw: str, port: int, pconf: PortConfig) -> None:
        if (sw, port) not in wired:
            switches[sw].add_port(port, pconf)
            wired.add((sw, port))

    for realization in projection.link_realization.values():
        kind = type(realization).__name__
        if kind == "SelfLink":
            ensure_port(realization.switch, realization.port_a, pc_self)
            ensure_port(realization.switch, realization.port_b, pc_self)
            _connect(
                switches[realization.switch], realization.port_a,
                switches[realization.switch], realization.port_b,
            )
        elif kind == "InterSwitchLink":
            ensure_port(realization.switch_a, realization.port_a, pc_cable)
            ensure_port(realization.switch_b, realization.port_b, pc_cable)
            _connect(
                switches[realization.switch_a], realization.port_a,
                switches[realization.switch_b], realization.port_b,
            )
        elif kind == "HostPort":
            ensure_port(realization.switch, realization.port, pc_cable)
            host = HostNode(
                sim, realization.host, make_rng(cfg.seed, "host", realization.host)
            )
            host.add_port(1, pc_cable)
            hosts[realization.host] = host
            _connect(switches[realization.switch], realization.port, host, 1)
        else:  # pragma: no cover - new realization kinds
            raise SimulationError(f"unknown link realization {realization!r}")

    return Network(
        sim=sim,
        config=cfg,
        switches=switches,
        hosts=hosts,
        kind="sdt",
        extras={"deployment": deployment},
    )
