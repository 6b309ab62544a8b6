"""A distance-vector routing protocol (RIP-shaped), run by the switches.

Unlike :mod:`.precomputed` — where an omniscient controller pushes
finished tables — this protocol converges the way Bellman-Ford
protocols do on real routers: every switch keeps a distance vector to
each *destination switch* (switches with hosts attached), advertises
it to its neighbors every ``advertise_interval``, and applies split
horizon with poisoned reverse. Link failure triggers immediate
(triggered-update) advertisements that propagate one hop per
``triggered_delay``, with count-to-infinity bounded by the classic
hop-count cap.

The synchronous-round abstraction: one round = one advertisement
interval in which every (changed) switch advertises and every switch
then updates. Convergence time is therefore *simulated protocol time*
— ``rounds x advertise_interval`` from cold, ``detection_delay +
rounds x triggered_delay`` after ``fail_link`` — never wall time, so
campaign reports stay deterministic.
"""

from __future__ import annotations

from repro.routing.protocols import register_protocol
from repro.routing.protocols.base import (
    ConvergenceReport,
    RoutingOutcome,
    RoutingProtocol,
)
from repro.routing.strategies import next_switch_routes
from repro.topology.graph import Topology, bfs_parents
from repro.util.units import MILLISECONDS

#: port-down signal latency at the failed link's endpoints
DETECTION_DELAY = 1 * MILLISECONDS


@register_protocol
class DistanceVectorProtocol(RoutingProtocol):
    """Periodic advertisements + triggered updates, per switch."""

    name = "distvec"

    def __init__(
        self,
        *,
        seed: int = 0,
        advertise_interval: float = 0.5,
        triggered_delay: float = 10 * MILLISECONDS,
    ) -> None:
        super().__init__(seed=seed)
        self.advertise_interval = advertise_interval
        self.triggered_delay = triggered_delay
        self._topology: Topology | None = None
        self._failed: set[int] = set()
        # dist[sw][dst_switch] / via[sw][dst_switch] -> neighbor name
        self._dist: dict[str, dict[str, int]] = {}
        self._via: dict[str, dict[str, str | None]] = {}

    # --- config ------------------------------------------------------------
    def generate_config(self, topology: Topology) -> dict[str, dict]:
        return {
            switch: {
                "protocol": "distvec",
                "advertise_interval": self.advertise_interval,
                "triggered_delay": self.triggered_delay,
                "split_horizon": "poisoned-reverse",
                "neighbors": sorted(
                    n
                    for n in topology.neighbors(switch)
                    if topology.is_switch(n)
                ),
            }
            for switch in topology.switches
        }

    # --- the Bellman-Ford engine -------------------------------------------
    @staticmethod
    def _destinations(topology: Topology) -> list[str]:
        """Destination switches = those with hosts attached (the only
        prefixes anyone originates)."""
        return sorted({topology.host_switch(h) for h in topology.hosts})

    def _iterate(
        self, topology: Topology, failed: set[int], *, triggered: bool
    ) -> tuple[int, int]:
        """Run synchronous advertisement rounds until stable.

        Returns ``(rounds, messages)``. In triggered mode only switches
        whose vector changed last round advertise (plus, in round one,
        the failed link's endpoints); in periodic mode everyone does.
        """
        infinity = max(16, len(topology.switches))
        dests = self._destinations(topology)
        dist, via = self._dist, self._via
        neighbors = topology.switch_neighbors(failed)
        # endpoints of newly-failed links notice first and re-advertise
        changed = set()
        for idx in failed:
            link = topology.links[idx]
            for node in link.endpoints:
                if topology.is_switch(node):
                    changed.add(node)
        rounds = 0
        messages = 0
        max_rounds = 2 * infinity + len(topology.switches)
        while rounds < max_rounds:
            rounds += 1
            senders = (
                sorted(changed) if triggered else sorted(neighbors)
            )
            messages += sum(len(neighbors[s]) for s in senders)
            # synchronous update from last round's vectors
            new_changed = set()
            for sw in topology.switches:
                my_dist = dist[sw]
                my_via = via[sw]
                for dst in dests:
                    if sw == dst:
                        continue
                    best_cost = infinity
                    best_via: str | None = None
                    for n in neighbors[sw]:
                        advertised = (
                            infinity
                            if via[n][dst] == sw  # poisoned reverse
                            else dist[n][dst]
                        )
                        cost = min(infinity, advertised + 1)
                        if cost < best_cost or (
                            cost == best_cost
                            and best_via is not None
                            and n < best_via
                        ):
                            best_cost = cost
                            best_via = n
                    if best_cost >= infinity:
                        best_via = None
                    if (my_dist[dst], my_via[dst]) != (best_cost, best_via):
                        my_dist[dst] = best_cost
                        my_via[dst] = best_via
                        new_changed.add(sw)
            changed = new_changed
            if not changed:
                break
        return rounds, messages

    def _reset_vectors(self, topology: Topology) -> None:
        infinity = max(16, len(topology.switches))
        dests = self._destinations(topology)
        self._dist = {
            sw: {dst: (0 if sw == dst else infinity) for dst in dests}
            for sw in topology.switches
        }
        self._via = {
            sw: {dst: None for dst in dests} for sw in topology.switches
        }

    def _all_reachable(self, topology: Topology) -> bool:
        infinity = max(16, len(topology.switches))
        live = topology.switch_neighbors(self._failed)
        for dst in self._destinations(topology):
            for sw in bfs_parents(dst, live):
                if self._dist[sw][dst] >= infinity:
                    return False
        return True

    # --- protocol interface --------------------------------------------------
    def initial_routes(self, topology: Topology) -> RoutingOutcome:
        self._topology = topology
        self._failed = set()
        self._reset_vectors(topology)
        rounds, messages = self._iterate(topology, set(), triggered=False)
        routes = next_switch_routes(topology, lambda sw, dst: self._via[sw][dst])
        return RoutingOutcome(
            routes=routes,
            convergence=ConvergenceReport(
                time=rounds * self.advertise_interval,
                rounds=rounds,
                messages=messages,
                mode="periodic",
                converged=self._all_reachable(topology),
            ),
            details={"destinations": len(self._destinations(topology))},
        )

    def repair_routes(
        self, topology: Topology, failed_links: set[int]
    ) -> RoutingOutcome:
        if self._topology is not topology:
            # cold instance: settle on the intact topology first
            self.initial_routes(topology)
        self._failed = set(self._failed) | set(failed_links)
        rounds, messages = self._iterate(
            topology, self._failed, triggered=True
        )
        routes = next_switch_routes(topology, lambda sw, dst: self._via[sw][dst])
        return RoutingOutcome(
            routes=routes,
            convergence=ConvergenceReport(
                time=DETECTION_DELAY + rounds * self.triggered_delay,
                rounds=rounds,
                messages=messages,
                mode="triggered",
                converged=self._all_reachable(topology),
            ),
            details={"failed_links": sorted(self._failed)},
        )
