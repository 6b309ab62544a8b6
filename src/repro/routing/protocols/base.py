"""The routing-protocol plug-in interface.

Campaigns compare *protocols*, not just route tables: how a protocol is
configured, what routes it computes, how long it takes to converge
after a failure, and how much chatter that costs. This module defines
the contract every plug-in satisfies (after the shape of closnet's
MTP-vs-BGP harness: per-protocol config generation -> route computation
-> failure repair -> convergence analysis over the same topology):

* :meth:`RoutingProtocol.generate_config` — the per-switch "router
  config" the protocol would push (counted + hashed in reports, the way
  closnet diffs generated FRR configs);
* :meth:`RoutingProtocol.initial_routes` — converge from cold on an
  intact topology;
* :meth:`RoutingProtocol.repair_routes` — event-driven repair after
  ``fail_link``; the returned :class:`ConvergenceReport` carries the
  *simulated* time from failure to a stable table;
* :meth:`RoutingProtocol.convergence_detected` — the per-protocol
  stability predicate (quiet period, no pending updates).

Implementations register themselves in :mod:`repro.routing.protocols`'s
registry so campaign specs can name them by string.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.routing.table import RouteTable
from repro.topology.graph import Topology


@dataclass(frozen=True)
class ConvergenceReport:
    """How a protocol settled (initial convergence or post-failure).

    All times are simulated seconds, derived from the protocol's own
    timer model — never wall time — so reports are deterministic.
    """

    #: simulated seconds from the triggering event to a stable table
    time: float
    #: protocol rounds (advertisement intervals, controller pushes, ...)
    rounds: int = 0
    #: control messages exchanged (advertisements, flow-mods, ...)
    messages: int = 0
    #: how the protocol settled ("cold", "periodic", "triggered",
    #: "recomputed", "local-repair", ...)
    mode: str = "cold"
    #: False when the protocol gave up (e.g. partition) — routes cover
    #: only what stayed reachable
    converged: bool = True

    def to_dict(self) -> dict:
        return {
            "time": self.time,
            "rounds": self.rounds,
            "messages": self.messages,
            "mode": self.mode,
            "converged": self.converged,
        }


@dataclass
class RoutingOutcome:
    """Routes plus the convergence story that produced them."""

    routes: RouteTable
    convergence: ConvergenceReport
    #: protocol-specific extras surfaced into campaign cell records
    details: dict = field(default_factory=dict)


class RoutingProtocol(ABC):
    """One pluggable routing protocol.

    Instances are cheap, per-cell objects: a campaign constructs a fresh
    protocol for every (topology, seed) cell, so implementations may
    cache per-topology state on ``self`` freely.
    """

    #: registry key; subclasses override
    name: str = "abstract"

    def __init__(self, *, seed: int = 0) -> None:
        self.seed = seed

    # --- contract ---------------------------------------------------------
    @abstractmethod
    def generate_config(self, topology: Topology) -> dict[str, dict]:
        """Per-switch configuration stanzas (JSON-able, deterministic)."""

    @abstractmethod
    def initial_routes(self, topology: Topology) -> RoutingOutcome:
        """Converge from cold on the intact topology."""

    @abstractmethod
    def repair_routes(
        self, topology: Topology, failed_links: set[int]
    ) -> RoutingOutcome:
        """Converge after the links in ``failed_links`` (indices into
        ``topology.links``) fail. Called after :meth:`initial_routes`
        on the same instance, so protocols may repair incrementally."""

    def convergence_detected(self, outcome: RoutingOutcome) -> bool:
        """Stability predicate; default trusts the outcome's report."""
        return outcome.convergence.converged

    # --- shared helpers ---------------------------------------------------
    # NOTE: repaired routes must be expressed in the *original*
    # topology's port space (rebuilding a Topology renumbers ports);
    # walk the original graph with failed links masked instead.
    @staticmethod
    def live_neighbors(
        topology: Topology, node: str, failed_links: set[int]
    ) -> list[str]:
        """Neighbors of ``node`` reachable over non-failed links."""
        if not failed_links:
            return topology.neighbors(node)
        return [
            link.other(node)
            for link in topology.links_of(node)
            if link.index not in failed_links
        ]

    def config_summary(self, topology: Topology) -> dict:
        """Deterministic size/hash digest of :meth:`generate_config`."""
        import hashlib
        import json

        config = self.generate_config(topology)
        blob = json.dumps(config, sort_keys=True).encode()
        return {
            "stanzas": len(config),
            "bytes": len(blob),
            "sha256": hashlib.sha256(blob).hexdigest()[:16],
        }
