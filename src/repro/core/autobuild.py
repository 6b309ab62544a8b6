"""Cluster auto-sizing: wire an SDT rig for a set of planned topologies.

Implements the §IV-B deployment procedure: partition every topology the
user plans to run, reserve the **max** per-pair inter-switch links, the
max per-switch host ports, and check the leftover ports cover the max
self-link demand. Raises a :class:`CapacityError` that names the exact
shortfall (how many more ports or switches are needed).
"""

from __future__ import annotations

from repro.core.projection.linkproj import plan_inter_switch_reservation
from repro.hardware.cluster import PhysicalCluster
from repro.hardware.spec import SwitchSpec
from repro.topology.graph import Topology
from repro.util.errors import CapacityError


def build_cluster_for(
    topologies: list[Topology],
    num_switches: int,
    spec: SwitchSpec,
    *,
    seed: int = 0,
    spare_hosts: int = 0,
    usages: list | None = None,
) -> PhysicalCluster:
    """Build a cluster whose fixed wiring accommodates every topology.

    ``spare_hosts`` adds extra host ports per switch beyond the computed
    demand (useful when later experiments attach more nodes). ``usages``
    parallels ``topologies`` with optional
    :class:`~repro.core.projection.pruning.UsageSet` entries so pruned
    deployments are planned at their pruned size.
    """
    budget = plan_inter_switch_reservation(
        topologies,
        num_switches,
        seed=seed,
        usages=usages,
    )
    return _wire_for_budget(budget, num_switches, spec, spare_hosts)


def _wire_for_budget(
    budget: dict[str, int],
    num_switches: int,
    spec: SwitchSpec,
    spare_hosts: int,
    *,
    needs: str = "needs",
    has: str = "has",
) -> PhysicalCluster:
    """Wire ``num_switches`` switches for a wiring budget (the dict
    :func:`plan_inter_switch_reservation` returns), or raise a
    :class:`CapacityError` naming the per-switch port shortfall;
    ``needs`` / ``has`` word the error for the caller."""
    hosts_per_switch = budget["hosts_per_switch"] + spare_hosts
    inter_per_pair = budget["inter_links_per_pair"]
    self_needed = budget["self_links_per_switch"]

    inter_ports = inter_per_pair * (num_switches - 1)
    needed = hosts_per_switch + inter_ports + 2 * self_needed
    if needed > spec.num_ports:
        raise CapacityError(
            f"{spec.model}: {needs} {needed} ports per switch "
            f"({hosts_per_switch} host + {inter_ports} inter-switch + "
            f"{2 * self_needed} self-link) but {has} {spec.num_ports}; "
            "add switches or use a larger switch"
        )
    return PhysicalCluster.build(
        num_switches,
        spec,
        hosts_per_switch=hosts_per_switch,
        inter_links_per_pair=inter_per_pair,
    )
