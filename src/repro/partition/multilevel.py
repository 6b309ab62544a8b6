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

Every step works on one plain representation: node weights
(``dict[str, int]`` in node order) and a weighted adjacency
(``dict[str, dict[str, int]]``), re-ordered once from the caller's. In
that order a node lists its neighbours earlier in node order first, in
node order, then itself (a self-loop) and its later neighbours in the
caller's order. The matching's tie-breaks and the coarse graph's edge
order follow it, so it is part of the output; an induced sub-graph in
that order keeps it, so one re-ordering serves the whole recursion.
Coarse node names are ``f"{u}+{v}"``: the refinement breaks gain ties
by name, so the names are part of the output too.

The refinement keeps each node's gain and its count of external
neighbours up to date move by move, and picks among a boundary set. No
result depends on that set's order: every pick breaks ties by the
smallest node name.
"""

from __future__ import annotations

from repro.partition.objective import Adjacency, Partition, Weights, edges
from repro.util.errors import PartitionError
from repro.util.rng import make_rng

#: allowed relative node-weight overshoot per side at each bisection
BALANCE_TOLERANCE = 0.15


def _coarsen_once(
    nw: Weights, adj: Adjacency, rng
) -> tuple[Weights, Adjacency, dict[str, str]] | None:
    """One round of heavy-edge matching: the coarse graph and the
    fine->coarse node map, or None when nothing matches."""
    nodes = list(nw)
    rng.shuffle(nodes)
    mate: dict[str, str] = {}
    for u in nodes:
        if u in mate:
            continue
        # heavy-edge: pick the neighbour with the largest edge weight,
        # breaking ties toward lighter nodes to keep weights balanced,
        # then toward the first in neighbour order
        best = None
        best_w = best_nw = 0
        for v, w in adj[u].items():
            if v in mate:
                continue
            if best is None or w > best_w or (w == best_w and nw[v] < best_nw):
                best, best_w, best_nw = v, w, nw[v]
        if best is not None:
            mate[u] = best
            mate[best] = u
    if not mate:
        return None

    coarse_nw: Weights = {}
    fine_to_coarse: dict[str, str] = {}
    for u in nw:
        if u in fine_to_coarse:
            continue
        v = mate.get(u)
        if v is None:
            fine_to_coarse[u] = u
            coarse_nw[u] = nw[u]
        else:
            cname = f"{u}+{v}"
            fine_to_coarse[u] = fine_to_coarse[v] = cname
            coarse_nw[cname] = nw[u] + nw[v]
    # each fine edge once, from its endpoint first in node order (the
    # order of ``edges()``), merged into the coarse adjacency
    coarse_adj: Adjacency = {c: {} for c in coarse_nw}
    done: set[str] = set()
    for u, nbrs in adj.items():
        cu = fine_to_coarse[u]
        coarse_nbrs = coarse_adj[cu]
        for v, w in nbrs.items():
            if v in done:
                continue
            cv = fine_to_coarse[v]
            if cu == cv:
                continue
            if cv in coarse_nbrs:
                coarse_nbrs[cv] += w
                coarse_adj[cv][cu] += w
            else:
                coarse_nbrs[cv] = w
                coarse_adj[cv][cu] = w
        done.add(u)
    return coarse_nw, coarse_adj, fine_to_coarse


def _greedy_bisect(nw: Weights, adj: Adjacency, rng) -> dict[str, int]:
    """Greedy graph-growing bisection of the coarsest graph.

    Grows part 0 from a random seed following max-gain frontier nodes
    (ties to the smallest name) until it holds half the total node
    weight. A node's gain — edge weight into part 0 minus edge weight
    out, the classic GGGP score — rises by ``2w`` per edge as its
    neighbours join.
    """
    nodes = list(nw)
    if len(nodes) == 1:
        return {nodes[0]: 0}
    target = sum(nw.values()) / 2.0
    seed = nodes[int(rng.integers(0, len(nodes)))]
    gain = {n: -sum(nbrs.values()) for n, nbrs in adj.items()}
    for v, w in adj[seed].items():
        gain[v] += 2 * w
    in_zero = {seed}
    weight = nw[seed]
    frontier = set(adj[seed])
    while weight < target and len(in_zero) < len(nodes) - 1:
        if not frontier:
            # disconnected remainder: pull in an arbitrary outside node
            outside = [n for n in nodes if n not in in_zero]
            frontier = {outside[int(rng.integers(0, len(outside)))]}
        pick = min(frontier, key=lambda n: (-gain[n], n))
        frontier.discard(pick)
        weight += nw[pick]
        # only a seed with a self-loop (its own neighbour) is picked
        # while already in part 0: its weight counts twice, its edges once
        if pick not in in_zero:
            in_zero.add(pick)
            for v, w in adj[pick].items():
                gain[v] += 2 * w
                if v not in in_zero:
                    frontier.add(v)
    return {n: (0 if n in in_zero else 1) for n in nodes}


def _kl_refine(
    nw: Weights,
    adj: Adjacency,
    assign: dict[str, int],
    *,
    max_passes: int = 8,
) -> dict[str, int]:
    """Boundary Kernighan–Lin refinement of a bisection.

    Repeatedly moves the best-gain boundary node whose move keeps node
    weights within :data:`BALANCE_TOLERANCE` of perfect balance, accepting
    a pass only if it improved the cut (with the usual KL hill-climb of
    tentative sequences and rollback to the best prefix).

    A pass computes every node's gain (external minus internal edge
    weight; a self-loop counts as internal) and its count of external
    neighbours once. A move then touches only the moved node's
    neighbours: one left behind gains ``2w``, one on the destination
    side loses ``2w``, and the boundary set — unmoved nodes with at
    least one external neighbour — gains or loses them as their count
    crosses zero. Each step picks, among boundary nodes that fit the
    balance bound, the highest gain, ties going to the smallest name,
    so the pick never depends on the set's order.
    """
    assign = dict(assign)
    total = sum(nw.values())
    max_side = total / 2.0 * (1.0 + BALANCE_TOLERANCE)
    weights = [
        sum(nw[n] for n, p in assign.items() if p == 0),
        sum(nw[n] for n, p in assign.items() if p == 1),
    ]
    hopeless_tail = 2 * len(nw) ** 0.5 + 16

    for _ in range(max_passes):
        work = dict(assign)
        wts = list(weights)
        gain: dict[str, int] = {}
        external: dict[str, int] = {}
        boundary: set[str] = set()
        for n, nbrs in adj.items():
            here = work[n]
            g = ext = 0
            for v, w in nbrs.items():
                if work[v] == here:
                    g -= w
                else:
                    g += w
                    ext += 1
            gain[n] = g
            external[n] = ext
            if ext:
                boundary.add(n)

        moved: set[str] = set()
        sequence: list[str] = []
        cumulative: list[int] = []
        running = 0
        for _step in range(len(nw)):
            best = None
            best_gain = 0
            for n in boundary:
                if wts[1 - work[n]] + nw[n] > max_side:
                    continue
                g = gain[n]
                if best is None or g > best_gain or (g == best_gain and n < best):
                    best, best_gain = n, g
            if best is None:
                break
            side = work[best]
            work[best] = 1 - side
            wts[side] -= nw[best]
            wts[1 - side] += nw[best]
            boundary.discard(best)
            moved.add(best)
            for v, w in adj[best].items():
                if v == best:
                    continue
                if work[v] == side:  # left behind: the edge is now cut
                    gain[v] += 2 * w
                    external[v] += 1
                    if external[v] == 1 and v not in moved:
                        boundary.add(v)
                else:  # on the destination side: the edge is now internal
                    gain[v] -= 2 * w
                    external[v] -= 1
                    if not external[v]:
                        boundary.discard(v)
            sequence.append(best)
            running += best_gain
            cumulative.append(running)
            if len(sequence) > hopeless_tail and running < 0:
                break  # hopeless tail; stop early

        if not sequence:
            break
        best_prefix = max(range(len(cumulative)), key=cumulative.__getitem__)
        if cumulative[best_prefix] <= 0:
            break
        for node in sequence[: best_prefix + 1]:
            side = assign[node]
            assign[node] = 1 - side
            weights[side] -= nw[node]
            weights[1 - side] += nw[node]
    return assign


def _bisect(nw: Weights, adj: Adjacency, seed: int) -> dict[str, int]:
    """Full multilevel bisection."""
    rng = make_rng(seed, "multilevel", len(nw), sum(1 for _ in edges(adj)))
    if len(nw) <= 1:
        return {n: 0 for n in nw}

    # (fine weights, fine adjacency, fine->coarse) per coarsening level
    levels: list[tuple[Weights, Adjacency, dict[str, str]]] = []
    cur_nw, cur_adj = nw, adj
    while len(cur_nw) > 24:
        coarse = _coarsen_once(cur_nw, cur_adj, rng)
        if coarse is None or len(coarse[0]) >= len(cur_nw):
            break
        levels.append((cur_nw, cur_adj, coarse[2]))
        cur_nw, cur_adj = coarse[0], coarse[1]

    assign = _greedy_bisect(cur_nw, cur_adj, rng)
    assign = _kl_refine(cur_nw, cur_adj, assign)
    for fine_nw, fine_adj, fine_to_coarse in reversed(levels):
        assign = {fine: assign[c] for fine, c in fine_to_coarse.items()}
        assign = _kl_refine(fine_nw, fine_adj, assign)
    return assign


def _induced(nw: Weights, adj: Adjacency, keep: list[str]) -> tuple[Weights, Adjacency]:
    """The sub-graph on ``keep``, in the parent's node and neighbour
    order (never the order of a set of names, which follows ``str``
    hashing and would differ from process to process)."""
    kept = set(keep)
    sub_nw = {n: w for n, w in nw.items() if n in kept}
    sub_adj = {
        n: {v: w for v, w in adj[n].items() if v in kept} for n in sub_nw
    }
    return sub_nw, sub_adj


def _split(nw: Weights, adj: Adjacency, num_parts: int, seed: int) -> dict[str, int]:
    """Recursive bisection of one (sub-)graph into ``num_parts``."""
    if not 0 < num_parts <= len(nw):
        raise PartitionError(f"cannot split {len(nw)} nodes into {num_parts} parts")
    if num_parts == 1:
        return {u: 0 for u in nw}

    # split part counts as evenly as possible; the extra part of an odd
    # count goes to the side the bisection made larger
    left_parts = num_parts // 2
    right_parts = num_parts - left_parts
    assign2 = _bisect(nw, adj, seed)
    side_nodes = [
        [u for u, p in assign2.items() if p == 0],
        [u for u, p in assign2.items() if p == 1],
    ]
    if right_parts > left_parts and len(side_nodes[1]) < len(side_nodes[0]):
        side_nodes.reverse()
    if len(side_nodes[0]) < left_parts or len(side_nodes[1]) < right_parts:
        # a side holds fewer nodes than its share: give it at most one
        # part per node
        left_parts = min(len(side_nodes[0]), num_parts - 1)
        right_parts = num_parts - left_parts

    result: dict[str, int] = {}
    for side, parts, offset in ((0, left_parts, 0), (1, right_parts, left_parts)):
        sub_nw, sub_adj = _induced(nw, adj, side_nodes[side])
        for u, p in _split(sub_nw, sub_adj, parts, seed + 1 + side).items():
            result[u] = offset + p
    return result


def multilevel_partition(
    weights: Weights,
    adj: Adjacency,
    num_parts: int,
    *,
    seed: int = 0,
) -> Partition:
    """Partition the graph (``weights``, ``adj``) into ``num_parts``
    balanced low-cut parts.

    Parameters
    ----------
    weights, adj:
        Undirected graph: integer node weights and, per node, its
        neighbours with integer edge weights, both listing the nodes in
        the same order.
    num_parts:
        Number of parts (physical switches); must be >= 1 and <= |V|.
        When a bisection leaves a side fewer nodes than its share of
        parts, that side gets one part per node and the other side the
        rest.
    seed:
        Seed for the randomized matching/seeding steps; results are
        deterministic for a given seed, node order and neighbour order,
        in every process: no result depends on the order of a set of
        node names, because every pick from one breaks ties by name.

    The adjacency is re-ordered once (see the module docstring); the
    result is validated against ``weights`` once.
    """
    if num_parts < 1:
        raise PartitionError(f"num_parts must be >= 1, got {num_parts}")
    # rebuilt from edges(), each from its endpoint first in node order
    ordered: Adjacency = {u: {} for u in weights}
    for u, v, w in edges(adj):
        ordered[u][v] = w
        ordered[v][u] = w
    partition = Partition(_split(weights, ordered, num_parts, seed), num_parts)
    partition.validate(weights)
    return partition
