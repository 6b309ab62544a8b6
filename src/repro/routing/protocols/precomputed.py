"""The repo's precomputed strategies, wrapped as a protocol plug-in.

This is "SDN routing" in campaign terms: the controller computes the
Table III strategy for the topology (fat-tree up/down, dragonfly
minimal, DOR, BFS shortest-path fallback), pushes it as flow rules,
and on failure recomputes with up*/down* (:func:`reroute_avoiding`).

Convergence is the *controller's* story: failure detection (a
port-down notification) plus the modeled flow-table push — the same
``count x flow_install_latency + rtt`` per switch that
``SDTController._estimated_install_time`` charges, maxed across
switches because pushes go out in parallel.
"""

from __future__ import annotations

from collections import Counter

from repro.openflow.channel import CONTROL_RTT, FLOW_INSTALL_LATENCY
from repro.routing.protocols import register_protocol
from repro.routing.protocols.base import (
    ConvergenceReport,
    RoutingOutcome,
    RoutingProtocol,
)
from repro.routing.repair import reroute_avoiding
from repro.routing.strategies import routes_for, strategy_for
from repro.routing.table import RouteTable
from repro.topology.graph import Topology
from repro.util.units import MILLISECONDS

#: port-down signal latency (hardware LOS -> controller event)
DETECTION_DELAY = 1 * MILLISECONDS


def _per_switch(routes: RouteTable) -> Counter[str]:
    """Entries per switch."""
    return Counter(switch for switch, _dst, _vc, _hop in routes.entries())


def modeled_push_time(routes: RouteTable) -> tuple[float, int]:
    """(modeled install time, flow-mod count) for pushing ``routes``.

    Per-switch pushes run in parallel; each switch pays one control RTT
    plus its entry count times the install latency — the same model the
    controller's deployment-time estimate uses.
    """
    per_switch = _per_switch(routes)
    if not per_switch:
        return (CONTROL_RTT, 0)
    worst = max(
        count * FLOW_INSTALL_LATENCY + CONTROL_RTT
        for count in per_switch.values()
    )
    return (worst, sum(per_switch.values()))


@register_protocol
class PrecomputedProtocol(RoutingProtocol):
    """Controller-pushed Table III strategies; up*/down* repair."""

    name = "precomputed"

    def __init__(self, *, seed: int = 0) -> None:
        super().__init__(seed=seed)
        #: the last topology routed and its table: a cell's config
        #: summary and its initial routes read one table
        self._routed: tuple[Topology, RouteTable] | None = None

    def _routes(self, topology: Topology) -> RouteTable:
        if self._routed is None or self._routed[0] is not topology:
            self._routed = (topology, routes_for(topology))
        return self._routed[1]

    def generate_config(self, topology: Topology) -> dict[str, dict]:
        routes = self._routes(topology)
        per_switch = _per_switch(routes)
        return {
            switch: {
                "protocol": "static",
                "entries": per_switch.get(switch, 0),
                "num_vcs": routes.num_vcs,
            }
            for switch in topology.switches
        }

    def initial_routes(self, topology: Topology) -> RoutingOutcome:
        strategy = strategy_for(topology)
        routes = self._routes(topology)
        time, flow_mods = modeled_push_time(routes)
        return RoutingOutcome(
            routes=routes,
            convergence=ConvergenceReport(
                time=time, rounds=1, messages=flow_mods, mode="cold"
            ),
            details={"strategy": strategy.name, "entries": len(routes)},
        )

    def repair_routes(
        self, topology: Topology, failed_links: set[int]
    ) -> RoutingOutcome:
        routes = reroute_avoiding(topology, failed_links)
        push_time, flow_mods = modeled_push_time(routes)
        return RoutingOutcome(
            routes=routes,
            convergence=ConvergenceReport(
                time=DETECTION_DELAY + push_time,
                rounds=1,
                messages=flow_mods,
                mode="recomputed",
            ),
            details={"strategy": "updown-repair", "entries": len(routes)},
        )
