"""Topology Projection engines: SDT's Link Projection plus the SP,
SP-OS and TurboNet comparators (§III-§IV)."""

from repro.core.projection.base import (
    LinkRealization,
    PhysPort,
    ProjectionResult,
    SubSwitch,
    host_port_demand,
    inter_switch_link_demand,
    self_link_demand,
)
from repro.core.projection.hybrid import HybridLinkProjection, HybridPlan
from repro.core.projection.linkproj import (
    FreeWiring,
    LinkProjection,
    plan_inter_switch_reservation,
)
from repro.core.projection.pruning import UsageSet, full_usage, route_usage
from repro.core.projection.switchproj import (
    Cable,
    CablePlan,
    SwitchProjection,
    optical_crossbar_config,
    optical_ports_required,
    recabling_moves,
)
from repro.core.projection.turbonet import (
    LoopbackAssignment,
    TurboNetProjection,
    turbonet_project,
)

__all__ = [
    "LinkRealization",
    "PhysPort",
    "ProjectionResult",
    "SubSwitch",
    "host_port_demand",
    "inter_switch_link_demand",
    "self_link_demand",
    "HybridLinkProjection",
    "HybridPlan",
    "FreeWiring",
    "LinkProjection",
    "plan_inter_switch_reservation",
    "UsageSet",
    "full_usage",
    "route_usage",
    "Cable",
    "CablePlan",
    "SwitchProjection",
    "optical_crossbar_config",
    "optical_ports_required",
    "recabling_moves",
    "LoopbackAssignment",
    "TurboNetProjection",
    "turbonet_project",
]
