"""Adaptive egress selection as a protocol plug-in.

:mod:`repro.routing.adaptive` (§VI-E) makes *per-message* UGAL
decisions at dragonfly injection routers. This plug-in promotes the
underlying idea — every switch keeps a ranked set of loop-free
candidate egresses per destination and can switch between them
*locally* — behind the generic :class:`RoutingProtocol` interface, so
campaigns can compare it against controller recomputation and
distance-vector convergence on any topology.

Candidate rule (downhill): neighbor ``n`` is a candidate egress of
switch ``s`` for destination ``d`` iff ``bfs_dist(n, d) <
bfs_dist(s, d)``. Every hop strictly decreases the intact-topology
distance, so any candidate choice is loop-free. On ``fail_link`` the
two endpoints re-select among their surviving candidates — a purely
local action, no control-plane chatter — and the repaired table is
trace-validated: pre-failure distances can't see a failure *downstream*
of the alternate, so if any host pair no longer traces, the plug-in
falls back to a global recompute (fresh BFS, controller-push timing).
"""

from __future__ import annotations

from repro.routing.protocols import register_protocol
from repro.routing.protocols.base import (
    ConvergenceReport,
    RoutingOutcome,
    RoutingProtocol,
)
from repro.routing.protocols.precomputed import (
    DETECTION_DELAY,
    modeled_push_time,
)
from repro.routing.strategies import next_switch_routes
from repro.routing.table import RouteTable
from repro.topology.graph import Topology, bfs_depths
from repro.util.errors import RoutingError, TopologyError
from repro.util.units import MICROSECONDS

#: switch-local egress re-selection latency (no controller round-trip)
LOCAL_UPDATE_DELAY = 50 * MICROSECONDS


@register_protocol
class AdaptiveEgressProtocol(RoutingProtocol):
    """Ranked loop-free candidate egresses; local repair first."""

    name = "adaptive"

    def __init__(self, *, seed: int = 0) -> None:
        super().__init__(seed=seed)
        self._topology: Topology | None = None
        self._failed: set[int] = set()
        # dist[dst_switch][switch] on the intact topology
        self._dist: dict[str, dict[str, int]] = {}
        # chosen egress neighbor per (switch, dst_switch)
        self._choice: dict[tuple[str, str], str] = {}

    # --- config ------------------------------------------------------------
    def generate_config(self, topology: Topology) -> dict[str, dict]:
        if self._topology is not topology:
            self._bootstrap(topology)
        candidates_of: dict[str, int] = {}
        for (sw, _dst), _n in self._choice.items():
            candidates_of[sw] = candidates_of.get(sw, 0) + 1
        return {
            switch: {
                "protocol": "adaptive",
                "selection": "ranked-downhill",
                "entries": candidates_of.get(switch, 0),
            }
            for switch in topology.switches
        }

    # --- internals ---------------------------------------------------------
    def _candidates(
        self, topology: Topology, sw: str, dst: str, failed: set[int]
    ) -> list[str]:
        """Downhill neighbors of ``sw`` toward ``dst``, best first."""
        dist = self._dist[dst]
        here = dist.get(sw)
        if here is None:
            return []
        out = [
            n
            for n in self.live_neighbors(topology, sw, failed)
            if topology.is_switch(n) and dist.get(n, 1 << 30) < here
        ]
        out.sort(key=lambda n: (dist[n], n))
        return out

    def _bootstrap(self, topology: Topology) -> None:
        self._topology = topology
        self._failed = set()
        self._converge(topology, set())

    def _converge(self, topology: Topology, failed: set[int]) -> None:
        """Distances on the graph without ``failed`` and every switch's
        best downhill egress toward each destination switch."""
        dests = sorted({topology.host_switch(h) for h in topology.hosts})
        live = topology.switch_neighbors(failed)
        self._dist = {dst: bfs_depths(dst, live) for dst in dests}
        self._choice = {}
        for dst in dests:
            for sw in topology.switches:
                if sw == dst:
                    continue
                cands = self._candidates(topology, sw, dst, failed)
                if cands:
                    self._choice[(sw, dst)] = cands[0]

    def _build_table(self, topology: Topology) -> RouteTable:
        return next_switch_routes(topology, lambda sw, dst: self._choice.get((sw, dst)))

    def _validate(self, topology: Topology, routes: RouteTable) -> bool:
        """Every host pair that should be reachable still traces."""
        for src in topology.hosts:
            for dst in topology.hosts:
                if src == dst:
                    continue
                attach = topology.host_switch(dst)
                first = topology.host_switch(src)
                if first != attach and (first, attach) not in self._choice:
                    continue  # known-unreachable: no claim to check
                try:
                    routes.trace(src, dst)
                except RoutingError:
                    return False
        return True

    # --- protocol interface --------------------------------------------------
    def initial_routes(self, topology: Topology) -> RoutingOutcome:
        self._bootstrap(topology)
        routes = self._build_table(topology)
        time, flow_mods = modeled_push_time(routes)
        return RoutingOutcome(
            routes=routes,
            convergence=ConvergenceReport(
                time=time, rounds=1, messages=flow_mods, mode="cold"
            ),
            details={"candidate_entries": len(self._choice)},
        )

    def repair_routes(
        self, topology: Topology, failed_links: set[int]
    ) -> RoutingOutcome:
        if self._topology is not topology:
            self._bootstrap(topology)
        self._failed = set(self._failed) | set(failed_links)
        failed = self._failed

        # local pass: endpoints of failed links re-rank their candidates
        reselected = 0
        stranded = False
        for (sw, dst), choice in sorted(self._choice.items()):
            link_ok = True
            try:
                link = topology.link_between(sw, choice)
                link_ok = link.index not in failed
            except TopologyError:
                link_ok = False
            if link_ok:
                continue
            cands = self._candidates(topology, sw, dst, failed)
            if cands:
                self._choice[(sw, dst)] = cands[0]
                reselected += 1
            else:
                stranded = True
                break

        if not stranded:
            routes = self._build_table(topology)
            if self._validate(topology, routes):
                return RoutingOutcome(
                    routes=routes,
                    convergence=ConvergenceReport(
                        time=DETECTION_DELAY + LOCAL_UPDATE_DELAY,
                        rounds=1,
                        messages=0,
                        mode="local-repair",
                    ),
                    details={"reselected": reselected},
                )

        # global fallback: recompute distances on the surviving graph
        self._converge(topology, failed)
        routes = self._build_table(topology)
        push_time, flow_mods = modeled_push_time(routes)
        return RoutingOutcome(
            routes=routes,
            convergence=ConvergenceReport(
                time=DETECTION_DELAY + push_time,
                rounds=1,
                messages=flow_mods,
                mode="recomputed",
            ),
            details={"reselected": reselected},
        )
