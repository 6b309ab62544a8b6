"""OpenFlow match structures.

The emulated pipeline matches the fields SDT actually uses on commodity
OpenFlow switches: ingress port, metadata (written by table 0 to carry
the sub-switch id between tables), destination/source host addresses
(standing in for MAC/IP), and the 5-tuple extras (protocol, L4 ports)
that user-defined routing strategies may key on (§VII-B condition 2).

``None`` in a field means wildcard. Metadata supports a mask like the
OpenFlow ``metadata/mask`` syntax.
"""

from __future__ import annotations

from typing import NamedTuple


class PacketHeader(NamedTuple):
    """The header fields our data plane forwards on.

    A NamedTuple for the reason :class:`Match` is one: the switch's
    forwarding memo is keyed on ``(in_port, header)`` and hashes it on
    every hop, which the tuple machinery does at C speed.
    """

    src: str  # source host address
    dst: str  # destination host address
    proto: str = "udp"  # "udp" | "tcp" | "roce"
    src_port: int = 0
    dst_port: int = 0
    traffic_class: int = 0  # 802.1p-style priority / queue hint
    vc: int = 0  # virtual channel (deadlock avoidance lifts this)

    def with_vc(self, vc: int) -> "PacketHeader":
        return self._replace(vc=vc)


class Match(NamedTuple):
    """An OpenFlow match; unset fields are wildcards.

    A NamedTuple rather than a frozen dataclass: rule synthesis builds
    one Match per emitted rule and the flow-table indexes hash them
    constantly, and the tuple machinery does construction, equality,
    and hashing at C speed (a frozen dataclass pays a Python-level
    ``object.__setattr__`` per field just to construct).
    """

    in_port: int | None = None
    metadata: int | None = None
    metadata_mask: int = 0xFFFFFFFF
    dst: str | None = None
    src: str | None = None
    proto: str | None = None
    src_port: int | None = None
    dst_port: int | None = None
    vc: int | None = None

    def matches(self, in_port: int, metadata: int, header: PacketHeader) -> bool:
        """Whether a packet arriving on ``in_port`` with pipeline
        ``metadata`` and ``header`` satisfies this match."""
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.metadata is not None:
            if (metadata & self.metadata_mask) != (self.metadata & self.metadata_mask):
                return False
        if self.dst is not None and self.dst != header.dst:
            return False
        if self.src is not None and self.src != header.src:
            return False
        if self.proto is not None and self.proto != header.proto:
            return False
        if self.src_port is not None and self.src_port != header.src_port:
            return False
        if self.dst_port is not None and self.dst_port != header.dst_port:
            return False
        if self.vc is not None and self.vc != header.vc:
            return False
        return True

    @property
    def specificity(self) -> int:
        """How many fields are constrained (tie-break helper for tests)."""
        return sum(
            f is not None
            for f in (
                self.in_port, self.metadata, self.dst, self.src,
                self.proto, self.src_port, self.dst_port, self.vc,
            )
        )

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        parts = []
        for name in ("in_port", "metadata", "dst", "src", "proto",
                     "src_port", "dst_port", "vc"):
            v = getattr(self, name)
            if v is not None:
                parts.append(f"{name}={v}")
        return "Match(" + ",".join(parts) + ")" if parts else "Match(*)"


MATCH_ANY = Match()
