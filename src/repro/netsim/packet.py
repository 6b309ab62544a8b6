"""Packets and flows.

A :class:`Packet` is the unit the queues and links move. Data packets
belong to a flow (one transport connection / RoCE QP); control packets
(ACK, CNP) ride the same fabric at the highest priority.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from repro.openflow.match import PacketHeader

_flow_ids = itertools.count(1)


def next_flow_id() -> int:
    return next(_flow_ids)


@dataclass(slots=True)
class Packet:
    """One packet in flight (slotted: one is built per packet sent)."""

    header: PacketHeader
    size: int  # bytes on the wire
    flow_id: int = 0
    seq: int = 0  # byte offset of this packet within its flow
    kind: str = "data"  # "data" | "ack" | "cnp"
    ecn_ce: bool = False  # congestion-experienced mark
    created: float = 0.0
    #: opaque cargo for transports (message ids, ack numbers, ...)
    meta: dict = field(default_factory=dict)

    def clone_header_with_vc(self, vc: int) -> None:
        """Rewrite the VC in place (switch SetVC action)."""
        self.header = self.header.with_vc(vc)


#: Control packets are small and preempt data by riding the top queue.
ACK_SIZE = 64
CNP_SIZE = 64
CONTROL_QUEUE = 7
