"""Event-driven network simulator: the fabric under both the "full
testbed / simulator" arm (logical switches, route-table forwarding) and
the "SDT" arm (physical switches, real OpenFlow pipelines)."""

from repro.netsim.dcqcn import DcqcnParams, DcqcnRp
from repro.netsim.engine import Simulator
from repro.netsim.linkquality import (
    QUALITY_PROFILES,
    LinkQuality,
    LinkQualityProfile,
    quality_profile,
)
from repro.netsim.network import (
    Network,
    NetworkConfig,
    build_logical_network,
    build_sdt_network,
)
from repro.netsim.node import HostNode, Node, SwitchNode
from repro.netsim.packet import Packet, next_flow_id
from repro.netsim.port import OutPort, PortConfig
from repro.netsim.stats import FlowRecord, FlowStats
from repro.netsim.transport import (
    WIRE_OVERHEAD,
    Message,
    RoceTransport,
    TcpFlow,
)

__all__ = [
    "DcqcnParams",
    "DcqcnRp",
    "Simulator",
    "LinkQuality",
    "LinkQualityProfile",
    "QUALITY_PROFILES",
    "quality_profile",
    "Network",
    "NetworkConfig",
    "build_logical_network",
    "build_sdt_network",
    "HostNode",
    "Node",
    "SwitchNode",
    "Packet",
    "next_flow_id",
    "OutPort",
    "PortConfig",
    "FlowRecord",
    "FlowStats",
    "WIRE_OVERHEAD",
    "Message",
    "RoceTransport",
    "TcpFlow",
]
