"""Graph partitioning for multi-switch SDT (§IV-B/IV-C).

`partition_topology` is the main entry point used by the SDT
controller: it partitions a logical topology's switch graph across
``num_parts`` physical switches, minimizing inter-switch links while
balancing per-switch link counts.
"""

from __future__ import annotations

from repro.partition.greedy import greedy_partition
from repro.partition.multilevel import multilevel_partition
from repro.partition.occupancy import occupancy_order, switch_headroom
from repro.partition.objective import (
    Partition,
    PartitionQuality,
    cut_edges_between,
    objective,
    quality,
)
from repro.partition.spectral import spectral_partition
from repro.topology.graph import Topology
from repro.util.errors import PartitionError

_METHODS = {
    "multilevel": multilevel_partition,
    "spectral": lambda g, k, seed=0: spectral_partition(g, k, seed=seed),
    "ncut": lambda g, k, seed=0: spectral_partition(g, k, method="ncut", seed=seed),
    "greedy": greedy_partition,
}


def partition_topology(
    topology: Topology,
    num_parts: int,
    *,
    method: str = "multilevel",
    seed: int = 0,
) -> Partition:
    """Partition ``topology``'s switches across ``num_parts`` physical
    switches. Hosts follow their attached switch and are not partitioned.
    """
    try:
        fn = _METHODS[method]
    except KeyError:
        raise PartitionError(
            f"unknown partition method {method!r}; choose from {sorted(_METHODS)}"
        ) from None
    graph = topology.switch_graph()
    # weight each switch by its total radix so port usage balances too
    for s in graph.nodes:
        graph.nodes[s]["weight"] = topology.radix(s)
    return fn(graph, num_parts, seed=seed)


__all__ = [
    "Partition",
    "PartitionQuality",
    "cut_edges_between",
    "greedy_partition",
    "multilevel_partition",
    "objective",
    "occupancy_order",
    "partition_topology",
    "switch_headroom",
    "quality",
    "spectral_partition",
]
