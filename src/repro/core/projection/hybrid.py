"""Hybrid SDT-OS projection (§VII-A "Flexibility Enhancement").

The paper's stated weakness of plain SDT: once the fixed wiring's
inter-switch links (or self-links) run out, a new topology needs manual
recabling after all. Its proposed remedy — future work there, built
here — is a small optical circuit switch holding a pool of *flex
ports*: the controller circuits two flex ports together on demand,
minting an extra self-link (both ends on one switch) or inter-switch
link (ends on different switches) in ~tens of milliseconds.

:class:`HybridLinkProjection` wraps the plain
:class:`~repro.core.projection.linkproj.LinkProjection`:

1. partition through the wrapped projector (its placement order,
   partition cache and free wiring apply unchanged) and read its
   deficit ledger against the fixed wiring;
2. convert every self-link / inter-switch-link deficit into flex-port
   circuits (host-port deficits cannot be fixed optically and still
   fail);
3. have the wrapped projector allocate against the augmented wiring,
   through the same free-wiring view rebuilt over the augmented plan,
   and report the optical reconfiguration time alongside the result.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.core.projection.base import ProjectionResult
from repro.core.projection.linkproj import (
    HOST_PORTS,
    SELF_LINKS,
    LinkProjection,
)
from repro.hardware.optical import OpticalCircuitSwitch
from repro.hardware.wiring import FlexPort, InterSwitchLink, SelfLink
from repro.partition import Partition
from repro.topology.graph import Topology
from repro.util.errors import CapacityError


@dataclass(frozen=True)
class HybridPlan:
    """What the optics must do for one deployment."""

    extra_self_links: tuple[SelfLink, ...]
    extra_inter_links: tuple[InterSwitchLink, ...]
    circuits: tuple[tuple[int, int], ...]  # OCS port pairs

    @property
    def flex_links_minted(self) -> int:
        return len(self.extra_self_links) + len(self.extra_inter_links)


def live_circuits(optical: OpticalCircuitSwitch) -> list[tuple[int, int]]:
    """The OCS crossbar as sorted ``(low, high)`` port pairs."""
    return sorted((a, b) for a, b in optical.circuits.items() if a < b)


def release_circuits(optical: OpticalCircuitSwitch, plan: HybridPlan) -> float:
    """Tear down a deployment's circuits (undeploy path); returns the
    modeled optical time."""
    if not plan.circuits:
        return 0.0
    drop = {(min(a, b), max(a, b)) for a, b in plan.circuits}
    return optical.configure(
        [pair for pair in live_circuits(optical) if pair not in drop]
    )


class HybridLinkProjection:
    """LP over fixed wiring + on-demand optical flex links: wraps the
    :class:`LinkProjection` the caller would have used without optics."""

    def __init__(
        self, projector: LinkProjection, optical: OpticalCircuitSwitch
    ) -> None:
        self.projector = projector
        self.optical = optical

    # --- flex pool ---------------------------------------------------------
    def _free_flex_ports(self, switch: str) -> list[FlexPort]:
        """Flex ports of ``switch`` whose OCS side is currently dark."""
        return [
            f
            for f in self.projector.cluster.wiring.flex_ports_of(switch)
            if self.optical.connected_to(f.ocs_port) is None
        ]

    # --- planning ----------------------------------------------------------
    def plan(
        self,
        topology: Topology,
        partition: Partition | None = None,
        usage=None,
    ) -> tuple[Partition, HybridPlan]:
        """Decide which flex circuits cover the fixed wiring's deficits."""
        partition = self.projector.partition_for(topology, partition)
        free_flex = {
            n: self._free_flex_ports(n) for n in self.projector.names
        }
        extra_self: list[SelfLink] = []
        extra_inter: list[InterSwitchLink] = []
        circuits: list[tuple[int, int]] = []
        problems: list[str] = []

        for resource, switches, needed, have in self.projector.ledger(
            topology, partition, usage
        ):
            if needed <= have:
                continue
            if resource is HOST_PORTS:
                problems.append(
                    f"{switches[0]}: needs {needed} host ports, wired "
                    f"{have} (optics cannot mint host ports)"
                )
                continue
            for _ in range(needed - have):
                if resource is SELF_LINKS:
                    pool = free_flex[switches[0]]
                    if len(pool) < 2:
                        problems.append(
                            f"{switches[0]}: self-link deficit needs 2 flex "
                            f"ports, {len(pool)} free"
                        )
                        break
                    a, b = pool.pop(0), pool.pop(0)
                    extra_self.append(SelfLink(switches[0], a.port, b.port))
                else:
                    na, nb = switches
                    if not free_flex[na] or not free_flex[nb]:
                        problems.append(
                            f"{na}<->{nb}: inter-link deficit needs flex "
                            "ports on both switches "
                            f"({len(free_flex[na])}/{len(free_flex[nb])} free)"
                        )
                        break
                    a, b = free_flex[na].pop(0), free_flex[nb].pop(0)
                    extra_inter.append(InterSwitchLink(na, a.port, nb, b.port))
                circuits.append((a.ocs_port, b.ocs_port))

        if problems:
            raise CapacityError(
                f"hybrid projection of {topology.name!r} infeasible: "
                + "; ".join(problems)
            )
        return partition, HybridPlan(
            tuple(extra_self), tuple(extra_inter), tuple(circuits)
        )

    # --- projection ----------------------------------------------------------
    def project(
        self,
        topology: Topology,
        partition: Partition | None = None,
        usage=None,
    ) -> tuple[ProjectionResult, HybridPlan, float]:
        """Plan optics, reconfigure the OCS, project against the
        augmented wiring. Returns (result, plan, optical_time)."""
        partition, plan = self.plan(topology, partition, usage)

        optical_time = 0.0
        if plan.circuits:
            optical_time = self.optical.configure(
                live_circuits(self.optical) + list(plan.circuits)
            )

        consumed: set[tuple[str, int]] = set()
        for sl in plan.extra_self_links:
            consumed.update({(sl.switch, sl.port_a), (sl.switch, sl.port_b)})
        for il in plan.extra_inter_links:
            consumed.update(
                {(il.switch_a, il.port_a), (il.switch_b, il.port_b)}
            )
        wiring = self.projector.cluster.wiring
        augmented = replace(
            wiring,
            self_links=[*wiring.self_links, *plan.extra_self_links],
            inter_links=[*wiring.inter_links, *plan.extra_inter_links],
            flex_ports=[
                f for f in wiring.flex_ports
                if (f.switch, f.port) not in consumed
            ],
        )
        augmented.validate()
        result = self.projector.allocate(
            topology, partition, usage, self.projector.free.over(augmented)
        )
        return result, plan, optical_time
