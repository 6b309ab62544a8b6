"""Active (adaptive) routing for Dragonfly (§VI-E, after [49]).

Extends minimal routing with UGAL-style congestion sensing: at the
*injection* router, each message compares the local queue backlog of
its minimal path against a Valiant detour through a random intermediate
group and takes the detour when the minimal queue looks ≥ ``bias``×
worse. Mid-path routing stays deterministic, so a message never
reorders internally.

VC discipline: the minimal segment uses the table's VC pair {0 local,
1 global}; the post-detour segment is lifted to {2, 3}. Segment
transitions only move to higher VCs, so the combined channel dependency
graph stays acyclic and PFC-safe.

In a real SDT deployment the same decisions become per-flow override
rules pushed by the controller from Network Monitor statistics
(:meth:`repro.core.controller.controller.SDTController.install_flow_override`);
the simulator arm here makes the identical decision inline from queue
depths, which is the information those port counters estimate.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.routing.strategies import _dragonfly_group  # shared name parser
from repro.routing.table import RouteTable
from repro.topology.graph import Topology
from repro.util.errors import RoutingError
from repro.util.rng import make_rng

if TYPE_CHECKING:  # netsim imports routing; keep the cycle import-lazy
    from repro.netsim.network import Network, NetworkConfig
    from repro.netsim.packet import Packet

#: VC offset applied to the post-detour (second minimal) segment
DETOUR_VC_OFFSET = 2
#: hops of each candidate path the injection router inspects
PROBE_HOPS = 3


class AdaptiveDragonflyForwarder:
    """Per-message UGAL-L decisions on top of a minimal route table."""

    def __init__(
        self,
        topology: Topology,
        minimal_routes: RouteTable,
        *,
        bias: float = 2.0,
        seed: int = 0,
    ) -> None:
        if minimal_routes.num_vcs < 2:
            raise RoutingError("adaptive dragonfly needs the 2-VC minimal table")
        self.topology = topology
        self.routes = minimal_routes
        self.bias = bias
        self._rng = make_rng(seed, "ugal")
        self.network: "Network | None" = None
        # (flow_id, msg) -> intermediate group or None (minimal)
        self._decision: dict[tuple[int, int], int | None] = {}
        # deterministic per-group proxy hosts for detour routing
        self._group_proxy: dict[int, str] = {}
        for sw in topology.switches:
            grp = _dragonfly_group(sw)
            if grp not in self._group_proxy:
                hosts = topology.hosts_of_switch(sw)
                if hosts:
                    self._group_proxy[grp] = hosts[0]
        self.groups = sorted(self._group_proxy)
        self.detours_taken = 0
        self.minimal_taken = 0

    # --- decision ------------------------------------------------------------
    def _choose(self, switch: str, packet: "Packet") -> int | None:
        """At the injection router: minimal or which intermediate group."""
        my_group = _dragonfly_group(switch)
        dst_group = _dragonfly_group(
            self.topology.host_switch(packet.header.dst)
        )
        if my_group == dst_group:
            return None
        candidates = [g for g in self.groups if g not in (my_group, dst_group)]
        if not candidates:
            return None
        detour_group = candidates[int(self._rng.integers(0, len(candidates)))]

        # Congestion along each candidate up to entering the target
        # group — the gateway's global port is the usual bottleneck.
        # This is the global view the paper's Network Monitor provides
        # ("estimating network congestion according to the statistic
        # data from the Network Monitor module").
        q_min = self._path_congestion(switch, packet.header.dst)
        q_det = self._path_congestion(switch, self._group_proxy[detour_group])
        # UGAL: minimal unless it looks bias x worse (+1 MTU slack for
        # the detour's extra hops)
        if q_min > self.bias * q_det + 4096:
            self.detours_taken += 1
            return detour_group
        self.minimal_taken += 1
        return None

    def _backlog(self, switch: str, port_no: int) -> int:
        assert self.network is not None
        node = self.network.switches[switch]
        port = node.ports.get(port_no)
        return port.backlog_bytes if port is not None else 0

    def _path_congestion(self, switch: str, dst: str) -> int:
        """Worst queue backlog on the first :data:`PROBE_HOPS` hops of the
        minimal path from ``switch`` until the packet would enter the
        destination's group."""
        dst_group = _dragonfly_group(self.topology.host_switch(dst))
        worst = 0
        for _, (node, hop, _link, _nxt) in zip(
            range(PROBE_HOPS), self.routes.walk(switch, dst)
        ):
            if _dragonfly_group(node) == dst_group:
                break
            worst = max(worst, self._backlog(node, hop.port.index + 1))
        return worst

    # --- forwarding -----------------------------------------------------------
    def forward(self, name: str, in_port: int, packet: "Packet"):
        key = (packet.flow_id, packet.meta.get("msg", 0))
        injecting = packet.header.vc == 0 and key not in self._decision and (
            self._is_host_port(name, in_port)
        )
        if injecting:
            self._decision[key] = self._choose(name, packet)

        detour = self._decision.get(key)
        vc = packet.header.vc
        on_detour_segment2 = vc >= DETOUR_VC_OFFSET
        try:
            if detour is None:
                hop = self.routes.next_hop(name, packet.header.dst, min(vc, 1))
                return (hop.port.index + 1, hop.vc, hop.vc)
            my_group = _dragonfly_group(name)
            if on_detour_segment2 or my_group == detour:
                hop = self.routes.next_hop(
                    name, packet.header.dst, min(vc - DETOUR_VC_OFFSET, 1)
                    if on_detour_segment2 else 0
                )
                lifted = hop.vc + DETOUR_VC_OFFSET
                return (hop.port.index + 1, lifted, lifted)
            hop = self.routes.next_hop(
                name, self._group_proxy[detour], min(vc, 1)
            )
            return (hop.port.index + 1, hop.vc, hop.vc)
        except RoutingError:
            return None

    def _is_host_port(self, switch: str, in_port: int) -> bool:
        ports = self.topology.ports_of(switch)
        idx = in_port - 1
        if idx >= len(ports):
            return False
        link = self.topology.link_of_port(ports[idx])
        return self.topology.is_host(link.other(switch))


def build_adaptive_network(
    topology: Topology,
    minimal_routes: RouteTable,
    config: "NetworkConfig | None" = None,
    *,
    bias: float = 2.0,
    seed: int = 0,
) -> "tuple[Network, AdaptiveDragonflyForwarder]":
    """A logical network whose switches run UGAL instead of the table."""
    from repro.netsim.network import build_logical_network

    forwarder = AdaptiveDragonflyForwarder(
        topology, minimal_routes, bias=bias, seed=seed
    )
    net = build_logical_network(topology, minimal_routes, config)
    forwarder.network = net
    for node in net.switches.values():
        node.forward_fn = forwarder.forward
    return net, forwarder
