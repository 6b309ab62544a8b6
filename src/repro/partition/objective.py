"""Partition quality: the paper's §IV-C objective and validity checks.

A partition assigns every logical switch to one physical switch
(a *part*). The requirements from §IV-C:

1. minimize the number of edges between sub-graphs (inter-switch links
   are scarcer and operationally heavier than self-links), and
2. balance the number of edges *within* each sub-graph (balanced port
   usage per physical switch).

The paper writes the combined objective as
``alpha * Cut(E_A, E_B) + beta * (1/sum(E_A) + 1/sum(E_B))``;
:func:`objective` generalizes that to k parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.util.errors import PartitionError

#: node -> weight, in node order
Weights = dict[str, int]
#: node -> {neighbour -> edge weight}; a self-loop is the node itself
Adjacency = dict[str, dict[str, int]]


def edges(adj: Adjacency) -> Iterator[tuple[str, str, int]]:
    """Each edge of ``adj`` once, as ``(u, v, weight)``, from its
    endpoint first in node order (a self-loop as ``(u, u, weight)``)."""
    done: set[str] = set()
    for u, nbrs in adj.items():
        for v, w in nbrs.items():
            if v not in done:
                yield u, v, w
        done.add(u)


@dataclass(frozen=True)
class PartitionQuality:
    """Aggregate quality numbers for one partition of one graph."""

    num_parts: int
    cut_edges: int
    internal_edges: tuple[int, ...]  # self-link count per part
    nodes_per_part: tuple[int, ...]
    edge_imbalance: float  # max part edges / mean part edges (1.0 = perfect)

    @property
    def total_edges(self) -> int:
        return self.cut_edges + sum(self.internal_edges)


@dataclass
class Partition:
    """A k-way assignment of graph nodes to parts ``0..k-1``."""

    assignment: dict[str, int]
    num_parts: int
    _parts_cache: list[list[str]] | None = field(default=None, repr=False)

    def part_of(self, node: str) -> int:
        try:
            return self.assignment[node]
        except KeyError:
            raise PartitionError(f"node {node!r} not in partition") from None

    def parts(self) -> list[list[str]]:
        """Nodes grouped by part index."""
        if self._parts_cache is None:
            groups: list[list[str]] = [[] for _ in range(self.num_parts)]
            for node, p in self.assignment.items():
                groups[p].append(node)
            self._parts_cache = groups
        return self._parts_cache

    def validate(self, weights: Weights, *, allow_empty: bool = False) -> None:
        """Check that every node of ``weights`` — and nothing else — is
        assigned a part in range, and (unless ``allow_empty``) that no
        part is empty."""
        if set(self.assignment) != set(weights):
            missing = set(weights) - set(self.assignment)
            extra = set(self.assignment) - set(weights)
            raise PartitionError(
                f"partition/graph node mismatch (missing={sorted(missing)[:5]}, "
                f"extra={sorted(extra)[:5]})"
            )
        for node, p in self.assignment.items():
            if not 0 <= p < self.num_parts:
                raise PartitionError(f"node {node!r} assigned to bad part {p}")
        if not allow_empty:
            sizes = [len(g) for g in self.parts()]
            if any(s == 0 for s in sizes):
                raise PartitionError(f"empty part in partition (sizes={sizes})")


def quality(
    weights: Weights, adj: Adjacency, partition: Partition
) -> PartitionQuality:
    """Compute :class:`PartitionQuality` for ``partition`` of the graph
    (``weights``, ``adj``); edges count once each, whatever their weight."""
    partition.validate(weights, allow_empty=True)
    k = partition.num_parts
    internal = [0] * k
    cut = 0
    for u, v, _w in edges(adj):
        pu, pv = partition.part_of(u), partition.part_of(v)
        if pu == pv:
            internal[pu] += 1
        else:
            cut += 1
    sizes = [len(g) for g in partition.parts()]
    mean_edges = sum(internal) / k if k else 0.0
    imbalance = (max(internal) / mean_edges) if mean_edges > 0 else 1.0
    return PartitionQuality(
        num_parts=k,
        cut_edges=cut,
        internal_edges=tuple(internal),
        nodes_per_part=tuple(sizes),
        edge_imbalance=imbalance,
    )


def objective(
    weights: Weights,
    adj: Adjacency,
    partition: Partition,
    *,
    alpha: float = 1.0,
    beta: float = 10.0,
) -> float:
    """The §IV-C scalar objective (lower is better), k-way generalized.

    ``beta`` multiplies the sum of reciprocal internal-edge counts, which
    blows up when any part holds few edges — exactly the paper's
    balance pressure. Empty-edge parts get a large finite penalty so
    optimizers can still compare candidates.
    """
    q = quality(weights, adj, partition)
    balance_term = 0.0
    for e in q.internal_edges:
        balance_term += (1.0 / e) if e > 0 else 2.0
    return alpha * q.cut_edges + beta * balance_term


def cut_edges_between(
    adj: Adjacency, partition: Partition
) -> dict[tuple[int, int], int]:
    """Inter-part edge counts keyed by ordered part pair (a < b).

    This is the per-physical-switch-pair inter-switch-link demand that
    drives wiring reservation (§IV-B, Eq. 2).
    """
    counts: dict[tuple[int, int], int] = {}
    for u, v, _w in edges(adj):
        pu, pv = partition.part_of(u), partition.part_of(v)
        if pu != pv:
            key = (min(pu, pv), max(pu, pv))
            counts[key] = counts.get(key, 0) + 1
    return counts
