"""Greedy BFS region-growing partitioner.

The simple baseline (and fallback for graphs too small for the
multilevel machinery): grow ``k`` regions breadth-first from spread-out
seeds, always extending the currently-lightest region. Fast, always
valid, usually a worse cut than :func:`multilevel_partition` — the
ablation benchmark quantifies the gap.
"""

from __future__ import annotations

from collections import deque

from repro.partition.objective import Adjacency, Partition, Weights, edges
from repro.topology.graph import bfs_depths
from repro.util.errors import PartitionError
from repro.util.rng import make_rng


def _spread_seeds(adj: Adjacency, k: int, rng) -> list[str]:
    """k seeds far apart: first random, then repeated farthest-point."""
    nodes = sorted(adj)
    seeds = [nodes[int(rng.integers(0, len(nodes)))]]
    dist: dict[str, int] = {}  # hops to the nearest seed
    while len(seeds) < k:
        for node, d in bfs_depths(seeds[-1], adj).items():
            dist[node] = min(dist.get(node, 1 << 30), d)
        # unreachable nodes (disconnected graphs) are infinitely far
        candidates = [n for n in nodes if n not in seeds]
        farthest = max(candidates, key=lambda n: dist.get(n, 1 << 31))
        seeds.append(farthest)
    return seeds


def greedy_partition(
    weights: Weights, adj: Adjacency, num_parts: int, *, seed: int = 0
) -> Partition:
    """Balanced BFS growth into ``num_parts`` regions (node weights are
    not consulted: regions balance by node count)."""
    n = len(weights)
    if num_parts < 1 or num_parts > n:
        raise PartitionError(f"cannot split {n} nodes into {num_parts} parts")
    if num_parts == 1:
        return Partition(dict.fromkeys(weights, 0), 1)

    rng = make_rng(seed, "greedy", n, sum(1 for _ in edges(adj)))
    seeds = _spread_seeds(adj, num_parts, rng)
    assign: dict[str, int] = {s: i for i, s in enumerate(seeds)}
    frontiers = [deque([s]) for s in seeds]
    sizes = [1] * num_parts

    unassigned = set(weights) - set(seeds)
    while unassigned:
        # extend the smallest region that still has a frontier
        order = sorted(range(num_parts), key=lambda p: sizes[p])
        grew = False
        for p in order:
            while frontiers[p]:
                u = frontiers[p][0]
                nxt = next((v for v in adj[u] if v in unassigned), None)
                if nxt is None:
                    frontiers[p].popleft()
                    continue
                assign[nxt] = p
                unassigned.discard(nxt)
                frontiers[p].append(nxt)
                sizes[p] += 1
                grew = True
                break
            if grew:
                break
        if not grew:
            # disconnected leftover: hand it to the smallest region
            u = sorted(unassigned)[0]
            p = min(range(num_parts), key=lambda q: sizes[q])
            assign[u] = p
            frontiers[p].append(u)
            sizes[p] += 1
            unassigned.discard(u)

    partition = Partition(assign, num_parts)
    partition.validate(weights)
    return partition
