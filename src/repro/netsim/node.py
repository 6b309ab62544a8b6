"""Simulator nodes: switches and hosts.

A :class:`SwitchNode` owns output ports and a pluggable forwarding
function — a :class:`~repro.routing.table.RouteTable` wrapper for
full-testbed runs, or a real emulated OpenFlow pipeline for SDT runs,
so SDT experiments exercise the very flow tables the controller
installed.

PFC ingress accounting lives here: each queued packet is charged to the
input port it arrived on; crossing XOFF pauses the upstream transmitter
(per priority) with a control-frame delay, and XON resumes it.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet
from repro.netsim.port import OutPort, PortConfig
from repro.util.errors import SimulationError
from repro.util.units import NANOSECONDS

#: forward decision: (out_port_no, queue, new_vc | None) or None to drop
ForwardFn = Callable[[str, int, Packet], "tuple[int, int, int | None] | None"]


class Node:
    """Common port bookkeeping for switches and hosts."""

    is_host = False

    def __init__(self, sim: Simulator, name: str, rng: np.random.Generator) -> None:
        self.sim = sim
        self.name = name
        self.rng = rng
        self.ports: dict[int, OutPort] = {}
        # PFC ingress accounting: (in_port, queue) -> charged bytes
        self._ingress_bytes: dict[tuple[int, int], int] = {}
        self._ingress_paused: dict[tuple[int, int], bool] = {}
        self.rx_packets = 0

    def add_port(self, port_no: int, config: PortConfig) -> OutPort:
        if port_no in self.ports:
            raise SimulationError(f"{self.name}: port {port_no} already exists")
        port = OutPort(self.sim, self, port_no, config, self.rng)
        self.ports[port_no] = port
        return port

    def receive(self, in_port: int, packet: Packet) -> None:  # pragma: no cover
        raise NotImplementedError

    # --- PFC ingress accounting ------------------------------------------
    def _charge_ingress(
        self, in_port: int, queue: int, packet: Packet
    ) -> tuple[tuple[int, int], int] | None:
        """Charge a parked packet against its input port; returns the
        charge, ``(key, size)``, for :meth:`_release_ingress` when the
        packet leaves this node."""
        if in_port == 0:
            return None  # locally generated (host injection)
        key = (in_port, queue)
        size = packet.size
        ingress = self._ingress_bytes
        charged = ingress[key] = ingress.get(key, 0) + size
        port = self.ports.get(in_port)
        if port is not None:
            cfg = port.config
            paused = self._ingress_paused
            if (
                cfg.pfc_enabled
                and charged > cfg.xoff_bytes
                and not paused.get(key, False)
            ):
                paused[key] = True
                self._send_pfc(in_port, queue, pause=True)
        return key, size

    def _release_ingress(self, key: tuple[int, int], size: int) -> None:
        """Undo a :meth:`_charge_ingress`; resume the upstream
        transmitter once the input port drains to XON."""
        ingress = self._ingress_bytes
        left = ingress[key] = ingress[key] - size
        paused = self._ingress_paused
        # only a port that exists can have paused its upstream
        if paused.get(key, False) and left <= self.ports[key[0]].config.xon_bytes:
            paused[key] = False
            self._send_pfc(key[0], key[1], pause=False)

    def _send_pfc(self, in_port: int, queue: int, *, pause: bool) -> None:
        """Tell the upstream transmitter on ``in_port`` to pause/resume."""
        port = self.ports.get(in_port)
        if port is None or port.peer is None:
            return
        upstream_port: OutPort = port.peer.ports[port.peer_port]
        upstream_port.pfc_pauses_sent += pause
        action = upstream_port.pause if pause else upstream_port.resume
        self.sim.schedule(port.config.pause_delay, action, queue)


class SwitchNode(Node):
    """A forwarding element (logical switch or physical SDT switch)."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        forward_fn: ForwardFn,
        rng: np.random.Generator,
        *,
        proc_delay: float = 400 * NANOSECONDS,
        extra_delay: float = 0.0,
        detail_flit_bytes: int | None = None,
    ) -> None:
        """``extra_delay`` models SDT's crossbar-load overhead (§VI-B):
        the small additional per-traversal latency topology projection
        introduces on a loaded physical crossbar. ``detail_flit_bytes``
        turns on detailed-simulator cost accounting: one bookkeeping
        event per flit of every forwarded packet (behaviour unchanged —
        wormhole arbitration keeps a packet's flits together)."""
        super().__init__(sim, name, rng)
        self.forward_fn = forward_fn
        self.proc_delay = proc_delay
        self.extra_delay = extra_delay
        self.detail_flit_bytes = detail_flit_bytes
        self.forwarded = 0
        self.dropped = 0

    def receive(self, in_port: int, packet: Packet) -> None:
        self.rx_packets += 1
        # PFC pauses target the priority the packet *arrived* on — the
        # class its upstream transmitter used — not the (possibly
        # rewritten) class it leaves on.
        arrival_vc = packet.header.vc
        decision = self.forward_fn(self.name, in_port, packet)
        if decision is None:
            self.dropped += 1
            return
        out_port_no, queue, new_vc = decision
        if new_vc is not None and new_vc != packet.header.vc:
            packet.clone_header_with_vc(new_vc)
        out = self.ports.get(out_port_no)
        if out is None:
            raise SimulationError(
                f"{self.name}: forward to nonexistent port {out_port_no}"
            )
        self.forwarded += 1
        ingress = self._charge_ingress(in_port, arrival_vc, packet)
        delay = self.proc_delay + self.extra_delay
        schedule = self.sim.schedule

        if self.detail_flit_bytes:
            # detailed-simulator mode: per-flit router-pipeline events
            # (route compute / VC alloc / switch alloc / traversal),
            # each its own scheduled event — their cost is what this
            # mode exists to pay
            for _ in range(max(1, packet.size // self.detail_flit_bytes)):
                schedule(delay, _detail_noop)

        schedule(delay, out.enqueue, packet, queue, ingress)


def _detail_noop() -> None:
    """Per-flit bookkeeping of the detailed-simulator mode."""


class HostNode(Node):
    """A computing node: NIC port(s) plus a receive dispatcher.

    Server-centric topologies (BCube) give hosts several NICs and have
    them *forward* transit traffic; set ``forward_fn`` (same signature
    as a switch's) to enable that. Packets addressed to this host are
    always delivered locally; with no ``forward_fn``, foreign packets
    are delivered too (the promiscuous mode the isolation tests sniff).
    """

    is_host = True

    def __init__(
        self,
        sim: Simulator,
        name: str,
        rng: np.random.Generator,
        *,
        nic_delay: float = 600 * NANOSECONDS,
        forward_fn: ForwardFn | None = None,
    ) -> None:
        super().__init__(sim, name, rng)
        self.nic_delay = nic_delay  # host stack / RoCE NIC latency
        self.forward_fn = forward_fn
        self.forwarded = 0
        self._receivers: list[Callable[[Packet], None]] = []

    def on_receive(self, callback: Callable[[Packet], None]) -> None:
        self._receivers.append(callback)

    @property
    def nic(self) -> OutPort:
        try:
            return self.ports[1]
        except KeyError:
            raise SimulationError(f"host {self.name} has no NIC port") from None

    def receive(self, in_port: int, packet: Packet) -> None:
        self.rx_packets += 1

        if self.forward_fn is not None and packet.header.dst != self.name:
            # transit packet through a server NIC (BCube-style)
            arrival_vc = packet.header.vc
            decision = self.forward_fn(self.name, in_port, packet)
            if decision is None:
                return
            out_port_no, queue, new_vc = decision
            if new_vc is not None and new_vc != packet.header.vc:
                packet.clone_header_with_vc(new_vc)
            out = self.ports.get(out_port_no)
            if out is None:
                raise SimulationError(
                    f"{self.name}: forward to nonexistent NIC {out_port_no}"
                )
            self.forwarded += 1
            ingress = self._charge_ingress(in_port, arrival_vc, packet)
            self.sim.schedule(self.nic_delay, out.enqueue, packet, queue, ingress)
            return
        self.sim.schedule(self.nic_delay, self._deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        for cb in self._receivers:
            cb(packet)

    def inject(self, packet: Packet, queue: int) -> None:
        """Send a packet out (after host-stack latency). Multi-NIC
        hosts with a forward_fn pick the NIC their route table names;
        everyone else uses the primary NIC."""
        if self.forward_fn is not None and len(self.ports) > 1:
            decision = self.forward_fn(self.name, 0, packet)
            if decision is not None:
                out_port_no, q, new_vc = decision
                if new_vc is not None and new_vc != packet.header.vc:
                    packet.clone_header_with_vc(new_vc)
                out = self.ports.get(out_port_no, self.nic)
                self.sim.schedule(self.nic_delay, out.enqueue, packet, q)
                return
        self.sim.schedule(self.nic_delay, self.nic.enqueue, packet, queue)
