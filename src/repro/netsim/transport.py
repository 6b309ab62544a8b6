"""Host transports: RoCE-style reliable messaging (with DCQCN) and a
window-based TCP for the lossy experiments.

**RoCE** (:class:`RoceTransport`): one queue pair per destination,
rate-paced at the DCQCN reaction-point rate, MTU segmentation, message
completion on last byte at the receiver, CNPs generated at most once
per interval per flow on ECN-marked arrivals. Lossless operation rests
on PFC in the fabric (packets are never dropped, only paused).

**TCP** (:class:`TcpFlow`): Reno-flavoured — slow start, congestion
avoidance, triple-dupack fast retransmit, RTO fallback — enough fidelity
for Fig. 12's question (how bandwidth shares form with PFC off, where
RTT differences drive window growth).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.netsim.dcqcn import DcqcnParams, DcqcnRp
from repro.netsim.network import Network
from repro.netsim.packet import CNP_SIZE, Packet, next_flow_id
from repro.openflow.match import PacketHeader
from repro.util.errors import SimulationError
from repro.util.units import MICROSECONDS, MILLISECONDS

#: fixed per-packet wire overhead (Ethernet + IP + transport headers)
WIRE_OVERHEAD = 80


@dataclass
class Message:
    """One application message in flight (RoCE)."""

    msg_id: int
    src: str
    dst: str
    tag: int
    size: int
    sent_bytes: int = 0
    acked_bytes: int = 0
    on_sent: Callable[[], None] | None = None


class _QueuePair:
    """Sender-side per-destination state: pacing + DCQCN RP."""

    __slots__ = ("flow_id", "rp", "pending", "active", "next_free")

    def __init__(self, params: DcqcnParams) -> None:
        self.flow_id = next_flow_id()
        self.rp = DcqcnRp(params)
        self.pending: list[Message] = []
        self.active = False
        self.next_free = 0.0


class RoceTransport:
    """RoCE RC-style messaging on one host."""

    def __init__(
        self,
        network: Network,
        address: str,
        *,
        mtu: int = 4096,
        dcqcn: DcqcnParams | None = None,
        cnp_interval: float = 50 * MICROSECONDS,
        wire_overhead: int | None = None,
    ) -> None:
        """``wire_overhead`` is the per-packet header cost in bytes; it
        defaults to WIRE_OVERHEAD scaled by mtu/4096 so flit-granularity
        runs (the simulator arm) carry the same byte volume per message
        as MTU-granularity runs instead of inflating it."""
        self.network = network
        self.sim = network.sim
        self.address = address
        self.mtu = mtu
        if wire_overhead is None:
            wire_overhead = max(4, WIRE_OVERHEAD * mtu // 4096)
        self.wire_overhead = wire_overhead
        self.params = dcqcn or DcqcnParams(line_rate=network.config.link_rate)
        self.cnp_interval = cnp_interval
        self._host = network.host(address)
        self._host.on_receive(self._on_packet)
        self._qps: dict[str, _QueuePair] = {}
        self._next_msg = 1
        # receive side: (src, msg_id) -> [received, total, tag]
        self._rx: dict[tuple[str, int], list] = {}
        self._rx_flow_last_cnp: dict[int, float] = {}
        self._on_message: list[Callable[[str, int, int, float], None]] = []
        self.bytes_received = 0
        self.messages_delivered = 0

    # --- public API ------------------------------------------------------
    def on_message(self, callback: Callable[[str, int, int, float], None]) -> None:
        """Register ``callback(src, tag, size, time)`` for completed
        incoming messages."""
        self._on_message.append(callback)

    def send(
        self,
        dst: str,
        nbytes: int,
        *,
        tag: int = 0,
        on_sent: Callable[[], None] | None = None,
    ) -> int:
        """Queue a message; returns its id. ``on_sent`` fires when the
        last byte leaves this host's NIC."""
        if dst == self.address:
            raise SimulationError("loopback sends bypass the network; not modeled")
        msg = Message(self._next_msg, self.address, dst, tag, max(0, nbytes),
                      on_sent=on_sent)
        self._next_msg += 1
        qp = self._qps.get(dst)
        if qp is None:
            qp = _QueuePair(self.params)
            self._qps[dst] = qp
            self._start_timers(qp)
        qp.pending.append(msg)
        if not qp.active:
            qp.active = True
            self._pump(dst, qp)
        return msg.msg_id

    # --- DCQCN timers ------------------------------------------------------
    def _start_timers(self, qp: _QueuePair) -> None:
        self.sim.schedule(self.params.alpha_timer, self._alpha_tick, qp)
        self.sim.schedule(self.params.increase_timer, self._increase_tick, qp)

    def _alpha_tick(self, qp: _QueuePair) -> None:
        qp.rp.on_alpha_timer(self.sim.now)
        if qp.active or qp.pending:
            self.sim.schedule(self.params.alpha_timer, self._alpha_tick, qp)

    def _increase_tick(self, qp: _QueuePair) -> None:
        qp.rp.on_increase_timer(self.sim.now)
        if qp.active or qp.pending:
            self.sim.schedule(self.params.increase_timer, self._increase_tick, qp)

    # --- sender pump ---------------------------------------------------------
    def _pump(self, dst: str, qp: _QueuePair) -> None:
        if not qp.pending:
            qp.active = False
            return
        # NIC backpressure: don't stuff a paused NIC queue (absolute
        # threshold so segmentation granularity doesn't change behavior)
        nic = self._host.nic
        if nic.backlog_bytes > 16384:
            self.sim.schedule(
                nic.backlog_bytes / self.params.line_rate, self._pump, dst, qp
            )
            return
        msg = qp.pending[0]
        payload = min(self.mtu, msg.size - msg.sent_bytes)
        header = PacketHeader(src=self.address, dst=dst, proto="roce")
        packet = Packet(
            header=header,
            size=payload + self.wire_overhead,
            flow_id=qp.flow_id,
            seq=msg.sent_bytes,
            created=self.sim.now,
            meta={
                "msg": msg.msg_id,
                "size": msg.size,
                "tag": msg.tag,
                "payload": payload,
            },
        )
        msg.sent_bytes += payload
        self._host.inject(packet, 0)
        if msg.sent_bytes >= msg.size:
            qp.pending.pop(0)
            if msg.on_sent is not None:
                msg.on_sent()
        # pace the next packet at the DCQCN rate
        delay = packet.size / max(qp.rp.rate, self.params.min_rate)
        self.sim.schedule(delay, self._pump, dst, qp)

    # --- receive path ---------------------------------------------------------
    def _on_packet(self, packet: Packet) -> None:
        if packet.header.dst != self.address:
            return  # isolation leak — counted by tests via misdelivery hooks
        if packet.kind == "cnp":
            qp = self._qps.get(packet.header.src)
            if qp is not None:
                qp.rp.on_cnp(self.sim.now)
            return
        if packet.kind != "data" or packet.header.proto != "roce":
            return
        meta = packet.meta
        key = (packet.header.src, meta["msg"])
        state = self._rx.get(key)
        if state is None:
            state = [0, meta["size"], meta["tag"]]
            self._rx[key] = state
        state[0] += meta["payload"]
        self.bytes_received += meta["payload"]

        if packet.ecn_ce:
            self._maybe_cnp(packet)

        if state[0] >= state[1]:
            del self._rx[key]
            self.messages_delivered += 1
            for cb in self._on_message:
                cb(packet.header.src, state[2], state[1], self.sim.now)

    def _maybe_cnp(self, packet: Packet) -> None:
        last = self._rx_flow_last_cnp.get(packet.flow_id, -1e18)
        if self.sim.now - last < self.cnp_interval:
            return
        self._rx_flow_last_cnp[packet.flow_id] = self.sim.now
        cnp = Packet(
            header=PacketHeader(
                src=self.address, dst=packet.header.src, proto="roce"
            ),
            size=CNP_SIZE,
            flow_id=packet.flow_id,
            kind="cnp",
            created=self.sim.now,
        )
        self._host.inject(cnp, 0)


# ---------------------------------------------------------------------------
# TCP (lossy mode, Fig. 12)
# ---------------------------------------------------------------------------

class TcpFlow:
    """A single long-lived Reno-style flow (iperf3 stand-in)."""

    def __init__(
        self,
        network: Network,
        src: str,
        dst: str,
        *,
        total_bytes: int | None = None,
        mss: int = 1460,
        init_cwnd_pkts: int = 10,
        max_cwnd: int = 1 << 20,
        on_complete: Callable[[float], None] | None = None,
    ) -> None:
        self.network = network
        self.sim = network.sim
        self.src = src
        self.dst = dst
        self.mss = mss
        self.max_cwnd = max_cwnd
        self.total_bytes = total_bytes  # None = run until stopped
        self.on_complete = on_complete
        self.flow_id = next_flow_id()

        self.cwnd = init_cwnd_pkts * mss
        self.ssthresh = max_cwnd
        self.snd_nxt = 0
        self.snd_una = 0
        self.dup_acks = 0
        self.recover = -1  # fast-recovery end marker
        self.srtt = 0.0
        self.rttvar = 0.0
        self.rto = 10 * MILLISECONDS
        self.delivered_bytes = 0
        self.retransmits = 0
        self.finished = False
        self._rto_epoch = 0
        self._send_times: dict[int, float] = {}

        src_host = network.host(src)
        dst_host = network.host(dst)
        src_host.on_receive(self._on_sender_packet)
        dst_host.on_receive(self._on_receiver_packet)
        self._src_host = src_host
        self._dst_host = dst_host
        self._rcv_nxt = 0
        self._ooo: set[int] = set()

    def start(self) -> None:
        self._send_window()

    # --- sender ---------------------------------------------------------
    def _send_window(self) -> None:
        while (
            self.snd_nxt < self.snd_una + self.cwnd
            and not self.finished
            and (self.total_bytes is None or self.snd_nxt < self.total_bytes)
        ):
            self._transmit(self.snd_nxt)
            self.snd_nxt += self.mss

    def _transmit(self, seq: int) -> None:
        payload = self.mss
        if self.total_bytes is not None:
            payload = min(payload, self.total_bytes - seq)
            if payload <= 0:
                return
        packet = Packet(
            header=PacketHeader(src=self.src, dst=self.dst, proto="tcp"),
            size=payload + WIRE_OVERHEAD,
            flow_id=self.flow_id,
            seq=seq,
            created=self.sim.now,
            meta={"payload": payload},
        )
        self._send_times[seq] = self.sim.now
        self._src_host.inject(packet, 0)
        self._arm_rto()

    def _arm_rto(self) -> None:
        self._rto_epoch += 1
        self.sim.schedule(self.rto, self._on_rto, self._rto_epoch)

    def _on_rto(self, epoch: int) -> None:
        if self.finished or epoch != self._rto_epoch:
            return
        if self.snd_una >= self.snd_nxt:
            return  # nothing outstanding
        # RTO: collapse to one segment, slow-start again
        self.ssthresh = max(2 * self.mss, self.cwnd // 2)
        self.cwnd = self.mss
        self.dup_acks = 0
        self.retransmits += 1
        self.rto = min(2 * self.rto, 200 * MILLISECONDS)
        self._transmit(self.snd_una)

    def _on_sender_packet(self, packet: Packet) -> None:
        if (
            packet.kind != "ack"
            or packet.flow_id != self.flow_id
            or packet.header.dst != self.src
            or self.finished
        ):
            return
        ack = packet.meta["ack"]
        if ack > self.snd_una:
            # new data acked
            sent_at = self._send_times.pop(ack - self.mss, None)
            if sent_at is None:
                sent_at = packet.created
            self._update_rtt(self.sim.now - sent_at)
            newly = ack - self.snd_una
            self.snd_una = ack
            self.delivered_bytes = ack
            self.dup_acks = 0
            if ack > self.recover:
                if self.cwnd < self.ssthresh:
                    self.cwnd = min(self.max_cwnd, self.cwnd + newly)  # slow start
                else:
                    self.cwnd = min(
                        self.max_cwnd,
                        self.cwnd + self.mss * self.mss // max(self.cwnd, 1),
                    )
            if (
                self.total_bytes is not None
                and self.snd_una >= self.total_bytes
            ):
                self.finished = True
                if self.on_complete is not None:
                    self.on_complete(self.sim.now)
                return
            self._arm_rto()
            self._send_window()
        else:
            self.dup_acks += 1
            if self.dup_acks == 3 and self.snd_una > self.recover:
                # fast retransmit + halve
                self.ssthresh = max(2 * self.mss, self.cwnd // 2)
                self.cwnd = self.ssthresh
                self.recover = self.snd_nxt
                self.retransmits += 1
                self._transmit(self.snd_una)

    def _update_rtt(self, sample: float) -> None:
        if sample <= 0:
            return
        if self.srtt == 0.0:
            self.srtt = sample
            self.rttvar = sample / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - sample)
            self.srtt = 0.875 * self.srtt + 0.125 * sample
        self.rto = max(1 * MILLISECONDS, self.srtt + 4 * self.rttvar)

    # --- receiver ------------------------------------------------------------
    def _on_receiver_packet(self, packet: Packet) -> None:
        if (
            packet.kind != "data"
            or packet.flow_id != self.flow_id
            or packet.header.dst != self.dst
        ):
            return
        seq = packet.seq
        if seq == self._rcv_nxt:
            self._rcv_nxt += packet.meta["payload"] or self.mss
            while self._rcv_nxt in self._ooo:
                self._ooo.discard(self._rcv_nxt)
                self._rcv_nxt += self.mss
        elif seq > self._rcv_nxt:
            self._ooo.add(seq)
        ack = Packet(
            header=PacketHeader(src=self.dst, dst=self.src, proto="tcp"),
            size=WIRE_OVERHEAD,
            flow_id=self.flow_id,
            kind="ack",
            created=packet.created,
            meta={"ack": self._rcv_nxt},
        )
        self._dst_host.inject(ack, 0)

    # --- reporting -------------------------------------------------------------
    def goodput(self, elapsed: float) -> float:
        """Delivered bytes/s over ``elapsed`` seconds."""
        return self.delivered_bytes / elapsed if elapsed > 0 else 0.0
