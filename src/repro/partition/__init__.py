"""Graph partitioning for multi-switch SDT (§IV-B/IV-C).

`partition_topology` is the main entry point used by the SDT
controller: it partitions a logical topology's switch graph across
``num_parts`` physical switches, minimizing inter-switch links while
balancing per-switch link counts.
"""

from __future__ import annotations

from functools import partial

from repro.partition.greedy import greedy_partition
from repro.partition.multilevel import multilevel_partition
from repro.partition.objective import (
    Adjacency,
    Partition,
    PartitionQuality,
    Weights,
    cut_edges_between,
    objective,
    quality,
)
from repro.partition.spectral import spectral_partition
from repro.topology.graph import Topology
from repro.util.errors import PartitionError

_METHODS = {
    "multilevel": multilevel_partition,
    "spectral": spectral_partition,
    "ncut": partial(spectral_partition, method="ncut"),
    "greedy": greedy_partition,
}


def weighted_switch_graph(topology: Topology) -> tuple[Weights, Adjacency]:
    """``topology``'s switch graph as the partitioners take it: each
    switch weighted by its total radix, so port usage balances too, and
    every link of weight 1, in :meth:`Topology.switch_neighbors` order."""
    nbrs = topology.switch_neighbors()
    weights = {s: topology.radix(s) for s in nbrs}
    return weights, {s: dict.fromkeys(ns, 1) for s, ns in nbrs.items()}


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
    return fn(*weighted_switch_graph(topology), num_parts, seed=seed)


__all__ = [
    "Adjacency",
    "Partition",
    "PartitionQuality",
    "cut_edges_between",
    "greedy_partition",
    "multilevel_partition",
    "objective",
    "partition_topology",
    "quality",
    "spectral_partition",
    "Weights",
    "weighted_switch_graph",
]
