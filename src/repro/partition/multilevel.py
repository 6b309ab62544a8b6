"""Multilevel k-way graph partitioner (METIS stand-in).

The paper uses METIS [38] to split logical topologies across physical
switches. METIS is not available offline, so this module implements the
same classic multilevel scheme from scratch:

1. **Coarsen** — repeated heavy-edge matching collapses node pairs until
   the graph is small;
2. **Initial partition** — greedy graph growing on the coarsest graph,
   balanced by (edge-weighted) node weight;
3. **Uncoarsen + refine** — project the partition back level by level,
   running boundary Kernighan–Lin refinement at each level with the
   §IV-C objective's balance pressure as a hard constraint.

k-way partitions are produced by recursive bisection, which is how the
original METIS paper (Karypis & Kumar, 1998) bootstraps k-way too.
"""

from __future__ import annotations

from dataclasses import dataclass

import networkx as nx

from repro.partition.objective import Partition
from repro.util.errors import PartitionError
from repro.util.rng import make_rng

#: allowed relative node-weight overshoot per side at each bisection
BALANCE_TOLERANCE = 0.15


@dataclass
class _Level:
    """One coarsening level: graph plus the fine->coarse node map."""

    graph: nx.Graph
    fine_to_coarse: dict[str, str]


def _node_weight(g: nx.Graph, n: str) -> int:
    return g.nodes[n].get("weight", 1)


def _edge_weight(g: nx.Graph, u: str, v: str) -> int:
    return g.edges[u, v].get("weight", 1)


def _coarsen_once(g: nx.Graph, rng) -> _Level | None:
    """One round of heavy-edge matching; None when no progress is made."""
    nodes = list(g.nodes)
    rng.shuffle(nodes)
    matched: set[str] = set()
    mate: dict[str, str] = {}
    for u in nodes:
        if u in matched:
            continue
        candidates = [v for v in g.neighbors(u) if v not in matched]
        if not candidates:
            continue
        # heavy-edge: pick the neighbor with the largest edge weight,
        # breaking ties toward lighter nodes to keep weights balanced
        v = max(
            candidates,
            key=lambda c: (_edge_weight(g, u, c), -_node_weight(g, c)),
        )
        matched.update((u, v))
        mate[u] = v
        mate[v] = u
    if not mate:
        return None

    coarse = nx.Graph()
    fine_to_coarse: dict[str, str] = {}
    for u in g.nodes:
        if u in fine_to_coarse:
            continue
        if u in mate:
            v = mate[u]
            cname = f"{u}+{v}"
            fine_to_coarse[u] = cname
            fine_to_coarse[v] = cname
            coarse.add_node(cname, weight=_node_weight(g, u) + _node_weight(g, v))
        else:
            fine_to_coarse[u] = u
            coarse.add_node(u, weight=_node_weight(g, u))
    for u, v, data in g.edges(data=True):
        cu, cv = fine_to_coarse[u], fine_to_coarse[v]
        if cu == cv:
            continue
        w = data.get("weight", 1)
        if coarse.has_edge(cu, cv):
            coarse.edges[cu, cv]["weight"] += w
        else:
            coarse.add_edge(cu, cv, weight=w)
    return _Level(graph=coarse, fine_to_coarse=fine_to_coarse)


def _greedy_bisect(g: nx.Graph, rng) -> dict[str, int]:
    """Greedy graph-growing bisection of the coarsest graph.

    Grows part 0 from a random seed following max-gain frontier nodes
    until it holds half the total node weight.
    """
    total = sum(_node_weight(g, n) for n in g.nodes)
    target = total / 2.0
    nodes = list(g.nodes)
    if len(nodes) == 1:
        return {nodes[0]: 0}
    seed = nodes[int(rng.integers(0, len(nodes)))]
    in_zero = {seed}
    weight = _node_weight(g, seed)
    frontier = set(g.neighbors(seed))
    while weight < target and len(in_zero) < len(nodes) - 1:
        if not frontier:
            # disconnected remainder: pull in an arbitrary outside node
            outside = [n for n in nodes if n not in in_zero]
            frontier = {outside[int(rng.integers(0, len(outside)))]}
        # gain = edges into part 0 minus edges out (classic GGGP)
        def gain(n: str) -> int:
            s = 0
            for v in g.neighbors(n):
                s += _edge_weight(g, n, v) if v in in_zero else -_edge_weight(g, n, v)
            return s

        pick = max(sorted(frontier), key=gain)
        frontier.discard(pick)
        in_zero.add(pick)
        weight += _node_weight(g, pick)
        frontier.update(v for v in g.neighbors(pick) if v not in in_zero)
    return {n: (0 if n in in_zero else 1) for n in nodes}


def _kl_refine(
    g: nx.Graph,
    assign: dict[str, int],
    *,
    max_passes: int = 8,
) -> dict[str, int]:
    """Boundary Kernighan–Lin refinement of a bisection.

    Repeatedly moves the best-gain boundary node whose move keeps node
    weights within :data:`BALANCE_TOLERANCE` of perfect balance, accepting
    a pass only if it improved the cut (with the usual KL hill-climb of
    tentative sequences and rollback to the best prefix).
    """
    assign = dict(assign)
    # hoist the graph into plain dicts: the refinement loop reads node
    # weights and weighted adjacency thousands of times per pass, and
    # networkx attribute-dict access dominated its runtime
    nodes = list(g.nodes)
    nw = {n: g.nodes[n].get("weight", 1) for n in nodes}
    adj: dict[str, list[tuple[str, int]]] = {
        n: [(v, d.get("weight", 1)) for v, d in g.adj[n].items()]
        for n in nodes
    }
    total = sum(nw.values())
    max_side = total / 2.0 * (1.0 + BALANCE_TOLERANCE)

    weights = {
        0: sum(nw[n] for n, p in assign.items() if p == 0),
        1: sum(nw[n] for n, p in assign.items() if p == 1),
    }
    hopeless_tail = 2 * len(nodes) ** 0.5 + 16

    for _ in range(max_passes):
        moved: set[str] = set()
        sequence: list[tuple[str, int]] = []  # (node, gain)
        cumulative: list[int] = []
        work = dict(assign)
        wts = dict(weights)

        def gain_of(n: str) -> int:
            here = work[n]
            g_in = g_out = 0
            for v, w in adj[n]:
                if work[v] == here:
                    g_in += w
                else:
                    g_out += w
            return g_out - g_in

        for _step in range(len(nodes)):
            feasible = []
            for n in nodes:
                if n in moved:
                    continue
                here = work[n]
                if all(work[v] == here for v, _w in adj[n]):
                    continue  # interior node, not on the boundary
                if wts[1 - here] + nw[n] <= max_side:
                    feasible.append(n)
            if not feasible:
                break
            best = max(sorted(feasible), key=gain_of)
            gain = gain_of(best)
            side = work[best]
            work[best] = 1 - side
            wts[side] -= nw[best]
            wts[1 - side] += nw[best]
            moved.add(best)
            sequence.append((best, gain))
            cumulative.append((cumulative[-1] if cumulative else 0) + gain)
            if len(sequence) > hopeless_tail and cumulative[-1] < 0:
                break  # hopeless tail; stop early

        if not sequence:
            break
        best_prefix = max(range(len(cumulative)), key=lambda i: cumulative[i])
        if cumulative[best_prefix] <= 0:
            break
        for node, _gain in sequence[: best_prefix + 1]:
            side = assign[node]
            assign[node] = 1 - side
            weights[side] -= nw[node]
            weights[1 - side] += nw[node]
    return assign


def _bisect(g: nx.Graph, seed: int) -> dict[str, int]:
    """Full multilevel bisection of ``g``."""
    rng = make_rng(seed, "multilevel", g.number_of_nodes(), g.number_of_edges())
    if g.number_of_nodes() <= 1:
        return {n: 0 for n in g.nodes}

    levels: list[_Level] = []
    current = g
    while current.number_of_nodes() > 24:
        lvl = _coarsen_once(current, rng)
        if lvl is None or lvl.graph.number_of_nodes() >= current.number_of_nodes():
            break
        levels.append(lvl)
        current = lvl.graph

    assign = _greedy_bisect(current, rng)
    assign = _kl_refine(current, assign)

    for lvl in reversed(levels):
        assign = {fine: assign[coarse] for fine, coarse in lvl.fine_to_coarse.items()}
        fine_graph = (
            levels[levels.index(lvl) - 1].graph if levels.index(lvl) > 0 else g
        )
        assign = _kl_refine(fine_graph, assign)
    return assign


def _induced(graph: nx.Graph, keep: list[str]) -> nx.Graph:
    """The sub-graph of ``graph`` on ``keep``, in ``graph``'s own node
    and edge order. (``graph.subgraph(keep).copy()`` iterates the *set*
    of kept nodes whenever that is the smaller side, so its node order —
    and every shuffle and tie-break downstream — would follow ``str``
    hashing and differ from process to process.)"""
    kept = set(keep)
    sub = nx.Graph()
    sub.add_nodes_from((n, graph.nodes[n]) for n in graph.nodes if n in kept)
    sub.add_edges_from(
        (u, v, d)
        for u, v, d in graph.edges(data=True)
        if u in kept and v in kept
    )
    return sub


def multilevel_partition(
    graph: nx.Graph,
    num_parts: int,
    *,
    seed: int = 0,
) -> Partition:
    """Partition ``graph`` into ``num_parts`` balanced low-cut parts.

    Parameters
    ----------
    graph:
        Undirected graph; optional integer ``weight`` attributes on
        nodes and edges are honored.
    num_parts:
        Number of parts (physical switches); must be >= 1 and <= |V|.
    seed:
        Seed for the randomized matching/seeding steps; results are
        deterministic for a given seed and node/edge insertion order,
        in every process (no step iterates a set of node names).
    """
    n = graph.number_of_nodes()
    if num_parts < 1:
        raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
    if num_parts > n:
        raise PartitionError(f"cannot split {n} nodes into {num_parts} parts")
    if num_parts == 1:
        return Partition({u: 0 for u in graph.nodes}, 1)

    # recursive bisection, splitting part counts as evenly as possible
    left_parts = num_parts // 2
    right_parts = num_parts - left_parts

    assign2 = _bisect(graph.copy(), seed)
    side_nodes = {
        0: [u for u, p in assign2.items() if p == 0],
        1: [u for u, p in assign2.items() if p == 1],
    }
    # make side 0 the larger side when parts are uneven
    if left_parts > right_parts and len(side_nodes[0]) < len(side_nodes[1]):
        side_nodes = {0: side_nodes[1], 1: side_nodes[0]}
    if right_parts > left_parts and len(side_nodes[1]) < len(side_nodes[0]):
        side_nodes = {0: side_nodes[1], 1: side_nodes[0]}

    result: dict[str, int] = {}
    for side, parts, offset in (
        (0, left_parts, 0),
        (1, right_parts, left_parts),
    ):
        sub = _induced(graph, side_nodes[side])
        sub_partition = multilevel_partition(sub, parts, seed=seed + 1 + side)
        for u, p in sub_partition.assignment.items():
            result[u] = offset + p

    partition = Partition(result, num_parts)
    partition.validate(graph)
    return partition
