"""Emulated OpenFlow substrate: matches, actions, multi-table switch
pipeline, and a modeled control channel (see DESIGN.md substitutions)."""

from repro.openflow.actions import (
    ApplyActions,
    Drop,
    GotoTable,
    Group,
    Output,
    SetQueue,
    SetVC,
    WriteMetadata,
    output_ports,
)
from repro.openflow.channel import (
    BarrierRequest,
    ChannelStats,
    ControlChannel,
    ControlPlane,
    FlowDelete,
    FlowMod,
    PortStatsRequest,
)
from repro.openflow.flowtable import FlowEntry, FlowTable
from repro.openflow.groups import Bucket, GroupEntry
from repro.openflow.match import MATCH_ANY, Match, PacketHeader
from repro.openflow.switch import (
    FlowModRun,
    ForwardDecision,
    OpenFlowSwitch,
    PendingRows,
    PortStats,
    SwitchSnapshot,
)
from repro.openflow.transaction import ControlTransaction, RollbackReport

__all__ = [
    "ApplyActions",
    "Drop",
    "GotoTable",
    "Group",
    "Output",
    "SetQueue",
    "SetVC",
    "WriteMetadata",
    "output_ports",
    "BarrierRequest",
    "ChannelStats",
    "ControlChannel",
    "ControlPlane",
    "FlowDelete",
    "FlowMod",
    "PortStatsRequest",
    "FlowEntry",
    "FlowTable",
    "Bucket",
    "GroupEntry",
    "MATCH_ANY",
    "Match",
    "PacketHeader",
    "FlowModRun",
    "ForwardDecision",
    "OpenFlowSwitch",
    "PendingRows",
    "PortStats",
    "SwitchSnapshot",
    "ControlTransaction",
    "RollbackReport",
]
