"""Output ports: queues, serialization, PFC, ECN, drops.

The simulator is output-queued with **ingress accounting** for PFC:
every packet parked in node N's output queues is charged against the
input port it arrived on; when an input port's charge crosses XOFF,
N pauses the upstream transmitter feeding that input (per priority),
and resumes it below XON. This is how real lossless Ethernet cascades
backpressure hop by hop — and how PFC deadlocks become possible when a
routing function admits a cyclic channel dependency.

ECN marking is RED-style on output-queue occupancy at enqueue time
(DCQCN's switch-side half). With ``pfc_enabled=False`` the port drops
on buffer overflow instead (the lossy/TCP mode of Fig. 12).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.netsim.engine import Simulator
from repro.netsim.packet import Packet
from repro.util.units import KIB, MICROSECONDS, NANOSECONDS


@dataclass
class PortConfig:
    """Per-port data-plane parameters (defaults match the paper's rig:
    10G lossless Ethernet with DCQCN-style ECN)."""

    rate: float  # bytes/s
    prop_delay: float = 100 * NANOSECONDS  # ~20 m of fiber
    num_queues: int = 8
    # PFC (per-queue thresholds, bytes of ingress charge)
    pfc_enabled: bool = True
    xoff_bytes: int = 96 * KIB
    xon_bytes: int = 64 * KIB
    # lossy-mode buffer (per output queue)
    buffer_bytes: int = 512 * KIB
    # ECN / RED marking on output occupancy
    ecn_enabled: bool = True
    ecn_kmin: int = 40 * KIB
    ecn_kmax: int = 160 * KIB
    ecn_pmax: float = 0.2
    # cut-through: start the next hop after the header, not the tail
    cut_through: bool = True
    header_bytes: int = 64
    # PFC pause/resume control-frame latency
    pause_delay: float = 1 * MICROSECONDS
    # egress scheduler: "strict" priority (default; control rides the
    # top queue) or "dwrr" deficit-weighted round robin for QoS studies
    scheduler: str = "strict"
    #: DWRR weights per queue (defaults to equal); quantum = weight*MTU
    dwrr_weights: tuple = (1, 1, 1, 1, 1, 1, 1, 1)
    dwrr_quantum: int = 4096
    # link-quality impairments (see repro.netsim.linkquality): Bernoulli
    # wire loss after serialization, and uniform [0, jitter) extra
    # propagation delay. Both at 0 make no RNG draws, so an unimpaired
    # port is bit-identical to one built before these knobs existed.
    loss_rate: float = 0.0
    jitter: float = 0.0


class OutPort:
    """One transmit port plus the link to its peer."""

    __slots__ = (
        "sim", "owner", "port_no", "config", "peer", "peer_port",
        "queues", "qbytes", "paused", "busy", "tx_bytes", "tx_packets",
        "drops", "lost", "pfc_pauses_sent", "_rng", "_deficit", "_rr_next",
        "_tx_size", "_tx_release",
    )

    def __init__(
        self,
        sim: Simulator,
        owner: "object",
        port_no: int,
        config: PortConfig,
        rng: np.random.Generator,
    ) -> None:
        self.sim = sim
        self.owner = owner
        self.port_no = port_no
        self.config = config
        self.peer = None  # set by network wiring
        self.peer_port: int = 0
        self.queues: list[deque] = [deque() for _ in range(config.num_queues)]
        self.qbytes = [0] * config.num_queues
        self.paused = [False] * config.num_queues
        self.busy = False
        self.tx_bytes = 0
        self.tx_packets = 0
        self.drops = 0
        self.lost = 0  # transmitted but corrupted on the wire (loss_rate)
        self.pfc_pauses_sent = 0
        self._rng = rng
        # DWRR state
        self._deficit = [0] * config.num_queues
        self._rr_next = 0
        # the packet on the wire (``busy`` admits one at a time): its
        # size and its ingress release, settled by :meth:`_tx_done`
        self._tx_size = 0
        self._tx_release = None

    # --- enqueue ------------------------------------------------------------
    def enqueue(
        self, packet: Packet, queue: int,
        ingress: tuple[tuple[int, int], int] | None = None,
    ) -> bool:
        """Queue a packet for transmission; returns False if dropped
        (lossy mode only). ``ingress`` is the owner's PFC ingress charge,
        ``(key, size)`` from ``Node._charge_ingress``: it is handed back
        to ``owner._release_ingress`` when the packet leaves this node."""
        cfg = self.config
        q = queue if queue < cfg.num_queues else cfg.num_queues - 1
        qbytes = self.qbytes
        occ = qbytes[q]
        size = packet.size
        if not cfg.pfc_enabled and occ + size > cfg.buffer_bytes:
            self.drops += 1
            if ingress is not None:
                self.owner._release_ingress(*ingress)
            return False
        if occ > cfg.ecn_kmin and cfg.ecn_enabled and packet.kind == "data":
            span = max(1, cfg.ecn_kmax - cfg.ecn_kmin)
            p = min(1.0, (occ - cfg.ecn_kmin) / span) * cfg.ecn_pmax
            if occ >= cfg.ecn_kmax or self._rng.random() < p:
                packet.ecn_ce = True
        self.queues[q].append((packet, ingress))
        qbytes[q] = occ + size
        if not self.busy:
            self.try_send()
        return True

    # --- PFC ----------------------------------------------------------------
    def pause(self, queue: int) -> None:
        if not self.paused[queue]:
            self.paused[queue] = True

    def resume(self, queue: int) -> None:
        if self.paused[queue]:
            self.paused[queue] = False
            self.try_send()

    # --- transmit loop --------------------------------------------------------
    def _pick_queue(self) -> int | None:
        """Pick the next queue to serve under DWRR (the strict-priority
        scan lives in :meth:`try_send`): deficit-weighted round robin —
        each eligible queue earns ``weight x quantum`` credit per visit
        and transmits while its head packet fits the accumulated
        deficit, giving long-run bandwidth shares proportional to the
        weights."""
        cfg = self.config
        # DWRR: stay on the current queue while its deficit covers the
        # head packet; on moving to a new eligible queue, grant it one
        # weight x quantum credit (the classic per-visit grant).
        nq = cfg.num_queues
        eligible = {
            q for q in range(nq) if self.queues[q] and not self.paused[q]
        }
        if not eligible:
            return None
        # a packet can exceed one quantum: allow enough grant rounds
        max_head = max(self.queues[q][0][0].size for q in eligible)
        min_quantum = max(
            1,
            min(
                cfg.dwrr_weights[q % len(cfg.dwrr_weights)] for q in eligible
            ) * cfg.dwrr_quantum,
        )
        rounds = nq * (2 + max_head // min_quantum)
        for _ in range(rounds):
            q = self._rr_next % nq
            if q in eligible:
                head_size = self.queues[q][0][0].size
                if self._deficit[q] >= head_size:
                    self._deficit[q] -= head_size
                    return q
            # visit over: move on, granting the next queue its quantum
            self._rr_next = (self._rr_next + 1) % nq
            nxt = self._rr_next
            if nxt in eligible:
                self._deficit[nxt] += (
                    cfg.dwrr_weights[nxt % len(cfg.dwrr_weights)]
                    * cfg.dwrr_quantum
                )
        # pathological configuration (e.g. zero weights): serve anyway
        return min(eligible)

    def try_send(self) -> None:
        peer = self.peer
        if self.busy or peer is None:
            return
        queues = self.queues
        if not any(queues):  # the common case: nothing left to send
            return
        cfg = self.config
        if cfg.scheduler == "strict":
            # highest index first (control rides 7)
            paused = self.paused
            for q in range(cfg.num_queues - 1, -1, -1):
                if queues[q] and not paused[q]:
                    break
            else:
                return
        else:
            q = self._pick_queue()
            if q is None:
                return
        queue = queues[q]
        packet, self._tx_release = queue.popleft()
        size = self._tx_size = packet.size
        self.qbytes[q] -= size
        if not queue:
            self._deficit[q] = 0  # classic DWRR: empty queues hoard nothing
        self.busy = True
        rate = cfg.rate
        ser = size / rate
        sim = self.sim
        sim.schedule(ser, self._tx_done)

        # wire loss (link-quality model): the transmitter pays the full
        # serialization either way, but a lost packet never arrives.
        # Guard the draw so loss_rate=0 consumes nothing from the RNG
        # stream ECN shares — bit-identical to the pre-quality path.
        if cfg.loss_rate > 0.0 and self._rng.random() < cfg.loss_rate:
            self.lost += 1
            return

        # arrival at the peer: cut-through forwards after the header —
        # but hosts consume whole packets, so delivery to a host is
        # always at the tail (a message isn't complete at its header)
        delay = ser
        if cfg.cut_through and not peer.is_host:
            head = cfg.header_bytes / rate
            if head < ser:
                delay = head
        delay += cfg.prop_delay
        if cfg.jitter > 0.0:
            delay += cfg.jitter * self._rng.random()
        sim.schedule(delay, peer.receive, self.peer_port, packet)

    def _tx_done(self) -> None:
        """The packet on the wire has left: settle it, send the next."""
        self.busy = False
        self.tx_bytes += self._tx_size
        self.tx_packets += 1
        ingress = self._tx_release
        if ingress is not None:
            self.owner._release_ingress(*ingress)
        self.try_send()

    # --- introspection -----------------------------------------------------
    @property
    def backlog_bytes(self) -> int:
        return sum(self.qbytes)

    def utilization(self, elapsed: float) -> float:
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.tx_bytes / (elapsed * self.config.rate))
