"""Table III routing strategies, and the one driver that compiles them.

Every strategy compiles a :class:`~repro.routing.table.RouteTable` for
its topology family:

=============  ==========================  =============================
Topology       Strategy                    Deadlock avoidance
=============  ==========================  =============================
Fat-Tree       up/down (paper: DFS)        none needed (up-down is acyclic)
Dragonfly      minimal (l-g-l)             VC bump on the global hop [44]
2D-Mesh        X-Y dimension order         by routing (turn-restricted)
3D-Mesh        X-Y-Z dimension order       by routing
2D/3D-Torus    dimension order + dateline  by routing and changing VC [47]
any            BFS shortest path           none (lossy/WAN use)
=============  ==========================  =============================

All strategies are destination-based (see :mod:`repro.routing.table`),
which is what keeps the synthesized OpenFlow rule count at the
~300-entries-per-switch level the paper reports (§VII-C).

A :class:`Strategy` is only its *rule*: for one destination host, which
node each switch (and, where hosts forward, each host) hands a packet
to, per incoming VC, and on which VC it leaves. :func:`build_routes`
owns everything else — the destination loop, the delivery hop, the
``(node, neighbour, vc) -> Hop`` memo and the table writes — and
:func:`repair_routes` derives an edited topology's table from the live
one, re-deriving only the destinations the edit can move.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass, replace
from functools import cache, partial
from typing import Callable, Iterable

from repro.routing.table import _NONE, Hop, RouteTable
from repro.topology.diff import TopologyDiff
from repro.topology.graph import Topology, bfs_parents
from repro.topology.torus import coords_of
from repro.util.errors import ConfigurationError, RoutingError

#: one rule step ``(node, next, out)``: ``node`` forwards a packet for
#: the destination to ``next`` — None is the destination host itself,
#: the delivery hop, which keeps the packet's VC. ``out`` is the VC it
#: leaves on: an int (one VC-wildcard entry) or a tuple (one exact
#: entry per in-VC ``i``, leaving on ``out[i]``). On a one-VC strategy
#: every entry is a wildcard on VC 0, whatever ``out`` says.
Step = tuple[str, str | None, int | tuple[int, ...]]
#: a strategy's rule on one topology: destination host -> its steps
Rule = Callable[[str], Iterable[Step]]
#: a rule prepared on one topology, with the number of VCs it routes on
PreparedRule = tuple[Rule, int]

_INF = float("inf")


@dataclass(frozen=True, eq=False)
class Strategy:
    """A destination-based routing rule that :func:`build_routes`
    compiles. Calling it compiles a table."""

    name: str
    #: ``rule(topology)`` prepares the rule on one topology, with the
    #: number of VCs it routes on there
    rule: Callable[[Topology], PreparedRule]
    #: server-centric: hosts forward transit packets
    hosts_forward: bool = False
    #: the rule reads a destination only through its switch, so the
    #: hosts on one switch share their steps
    per_switch: bool = False
    #: ``touches(old, dst, diff)``: False when the edit ``diff`` leaves
    #: the next node and out-VC of every entry of ``old`` (this
    #: strategy's table on the topology ``diff`` starts from) toward
    #: ``dst`` unchanged, so :func:`repair_routes` only renumbers ports;
    #: for a :attr:`per_switch` rule the answer covers every host on
    #: ``dst``'s switch. Without it every destination is re-derived.
    touches: Callable[[RouteTable, str, TopologyDiff], bool] | None = None

    def __call__(self, topology: Topology) -> RouteTable:
        return build_routes(topology, self)


# ---------------------------------------------------------------------------
# The driver
# ---------------------------------------------------------------------------

class _Hops(dict):
    """``(node, neighbour, vc) -> Hop`` on one topology, each built on
    first use and shared by every entry that leaves by that port on
    that VC."""

    def __init__(self, topology: Topology) -> None:
        super().__init__()
        self.topology = topology

    def __missing__(self, key: tuple[str, str, int]) -> Hop:
        node, nbr, vc = key
        hop = self[key] = Hop(self.topology.link_between(node, nbr).port_on(node), vc)
        return hop


def _expand(
    steps: Iterable[Step], num_vcs: int
) -> list[tuple[str, int | None, str | None, int]]:
    """``(node, in_vc, next, out_vc)`` per entry of a rule's steps, in
    order; in_vc None is a VC wildcard."""
    if num_vcs == 1:  # every entry is a wildcard on VC 0
        return [(node, None, nxt, 0) for node, nxt, _out in steps]
    out: list[tuple[str, int | None, str | None, int]] = []
    for node, nxt, vc in steps:
        if nxt is None:  # the delivery keeps the VC
            vc = tuple(range(num_vcs))
        if isinstance(vc, int):
            out.append((node, None, nxt, vc))
        else:
            out.extend([(node, i, nxt, o) for i, o in enumerate(vc)])
    return out


def build_routes(topology: Topology, strategy: Strategy) -> RouteTable:
    """``strategy``'s table on ``topology``: every destination host in
    ``topology.hosts`` order, each with its steps in the rule's order."""
    (rule, num_vcs), hops = strategy.rule(topology), _Hops(topology)
    table = RouteTable(topology, num_vcs, strategy.hosts_forward)
    wild, exact, order = table._wild, table._exact, table._order
    # per destination (switch): its run of entries, then its forwarding
    # entries as (the node's map, hop) and (map, in_vc, hop), and its
    # deliveries as (map, node, in_vc): a delivery's hop depends on the
    # host
    shared: dict[str, tuple] = {}
    for dst in topology.hosts:
        key = topology.host_switch(dst) if strategy.per_switch else dst
        plan = shared.get(key)
        if plan is None:
            run_wild, run_exact = [], []
            forward_wild, forward_exact, deliveries = [], [], []
            for node, in_vc, nxt, vc in _expand(rule(dst), num_vcs):
                maps = wild if in_vc is None else exact
                at = maps.get(node)
                if at is None:
                    at = maps[node] = {}
                if in_vc is None:
                    run_wild.append(node)
                else:
                    run_exact.append((node, in_vc))
                if nxt is None:
                    deliveries.append((at, node, in_vc))
                elif in_vc is None:
                    forward_wild.append((at, hops[node, nxt, vc]))
                else:
                    forward_exact.append((at, in_vc, hops[node, nxt, vc]))
            plan = shared[key] = (
                tuple(run_wild), tuple(run_exact),
                forward_wild, forward_exact, deliveries,
            )
        run_wild, run_exact, forward_wild, forward_exact, deliveries = plan
        order.append((dst, run_wild, run_exact))
        for at, hop in forward_wild:
            at[dst] = hop
        for at, in_vc, hop in forward_exact:
            at[dst, in_vc] = hop
        for at, node, in_vc in deliveries:
            if in_vc is None:
                at[dst] = hops[node, dst, 0]
            else:
                at[dst, in_vc] = hops[node, dst, in_vc]
    return table


def repair_routes(
    old: RouteTable, topology: Topology, diff: TopologyDiff, strategy: Strategy
) -> tuple[RouteTable, frozenset[str]] | None:
    """``strategy``'s table on ``topology``, derived from ``old`` —
    which must be ``strategy``'s table on the topology ``diff`` starts
    from — together with the nodes that have an entry whose hop moved;
    None when the edit needs the full build.

    A destination is derived again only where the strategy's
    :attr:`~Strategy.touches` test (every destination without one) says
    the edit can move it, and compared with ``old`` entry by entry. Of
    every other destination only the entries at an edited link's
    endpoints are looked at: their next node stays, their port can
    renumber. ``old``'s keys and their order are kept
    (:meth:`RouteTable.repaired`).

    The full build is needed for an edit that changes the node lists,
    the VC count or a host's link, that reorders surviving links, or
    that would add or drop an entry."""
    src = old.topology
    touched = diff.touched_nodes()
    kept = [i for i in diff.kept if i >= 0]
    if (
        src.switches != topology.switches
        or src.hosts != topology.hosts
        or any(map(topology.is_host, touched))
        or any(a >= b for a, b in zip(kept, kept[1:]))
    ):
        return None
    (rule, num_vcs), hops = strategy.rule(topology), _Hops(topology)
    if old.num_vcs != num_vcs:
        return None
    wild, exact = old._wild, old._exact
    in_vcs = (None, *range(num_vcs)) if exact else (None,)
    nodes = topology.nodes if strategy.hosts_forward else topology.switches
    changed: dict[tuple, Hop] = {}

    def old_hop(node: str, dst: str, in_vc: int | None) -> Hop | None:
        if in_vc is None:
            return wild.get(node, _NONE).get(dst)
        return exact.get(node, _NONE).get((dst, in_vc))

    def put(node: str, dsts: list[str], in_vc: int | None, hop: Hop, was: Hop) -> None:
        # both hops leave ``node``: its port index and the VC decide
        if hop is not was and (hop.port.index != was.port.index or hop.vc != was.vc):
            for dst in dsts:
                changed[(node, dst) if in_vc is None else (node, dst, in_vc)] = hop

    groups: dict[str, list[str]] = {}
    for dst in topology.hosts:
        key = topology.host_switch(dst) if strategy.per_switch else dst
        groups.setdefault(key, []).append(dst)
    for dsts in groups.values():
        rep = dsts[0]
        whole = strategy.touches is None or strategy.touches(old, rep, diff)
        if whole:
            steps = _expand(rule(rep), num_vcs)
        else:  # the old next nodes, at the edited links' endpoints
            steps = []
            for node in touched:
                for in_vc in in_vcs:
                    was = old_hop(node, rep, in_vc)
                    if was is not None:
                        nxt = src.neighbors(node)[was.port.index]
                        steps.append((node, in_vc, None if nxt == rep else nxt, was.vc))
        for node, in_vc, nxt, out_vc in steps:
            was = old_hop(node, rep, in_vc)
            if was is None:  # an entry would appear
                return None
            if nxt is None:  # the delivery: one hop per destination
                for dst in dsts:
                    put(node, [dst], in_vc, hops[node, dst, in_vc or 0],
                        old_hop(node, dst, in_vc))
            elif (
                # an untouched node's ports kept their numbers
                node in touched
                or was.vc != out_vc
                or src.neighbors(node)[was.port.index] != nxt
            ):
                put(node, dsts, in_vc, hops[node, nxt, out_vc], was)
        if whole and len(steps) < len(nodes) * len(in_vcs) and len(steps) != sum(
            rep in wild.get(n, _NONE) for n in nodes
        ) + sum(
            (rep, vc) in exact.get(n, _NONE)
            for n in nodes if exact for vc in range(num_vcs)
        ):  # an entry would disappear
            return None
    return old.repaired(topology, changed), frozenset(key[0] for key in changed)


def _stable_hash(a: object, b: object) -> int:
    h = hashlib.sha256(f"{a!r}|{b!r}".encode()).digest()
    return int.from_bytes(h[:8], "little")


# ---------------------------------------------------------------------------
# Generic shortest path (BFS)
# ---------------------------------------------------------------------------

def _bfs_rule(topo: Topology) -> PreparedRule:
    """A BFS tree rooted at a destination's switch points every
    reachable switch along the tree toward that root; entries come out
    in ``topo.switches`` order."""
    switches = topo.switches
    sw_nbrs: dict[str, list[str]] = {}

    def rule(dst: str) -> list[Step]:
        root = topo.host_switch(dst)
        if not sw_nbrs:  # built on first use: a repair may re-derive no tree
            sw_nbrs.update(topo.switch_neighbors())
        parent = bfs_parents(root, sw_nbrs)
        return [
            (sw, None if sw == root else parent[sw], 0)
            for sw in switches
            if sw in parent
        ]

    return rule, 1


def _tree_touches(old: RouteTable, dst: str, diff: TopologyDiff) -> bool:
    """Whether the edit can change the BFS tree rooted at ``dst``'s
    switch. The old tree, read off ``old``'s hops, decides:

    * a removed link changes a tree only if it is a tree edge;
    * an added link a--b, with a the end the BFS dequeues first,
      changes a tree only if b's parent is dequeued after a, so that b
      is still undiscovered when a scans it. Otherwise both scans of
      the link find their far end discovered, and every other scan
      keeps its order. BFS dequeues by depth, then by the neighbor
      positions along the tree path, compared in order.

    An end outside the old tree (a switch the root did not reach) may
    be reached now: that tree is derived again."""
    src = old.topology
    root = src.host_switch(dst)
    wild = old._wild
    ranks: dict[str, tuple[int, tuple[int, ...]]] = {root: (0, ())}

    def parent(v: str) -> str:
        """v's parent in the old tree; the root is its own."""
        if v == root:
            return v
        return src.neighbors(v)[wild[v][dst].port.index]

    def rank(v: str) -> tuple[int, tuple[int, ...]]:
        """v's place in the old BFS's dequeue order, memoised along
        the tree path."""
        path = []
        while v not in ranks:
            p = parent(v)
            path.append((v, p))
            v = p
        for v, p in reversed(path):
            depth, pos = ranks[p]
            ranks[v] = (depth + 1, (*pos, src.neighbors(p).index(v)))
        return ranks[v]

    try:
        if any(parent(a) == b or parent(b) == a for a, b in diff.removed_links):
            return True
        for a, b in diff.added_links:
            ra, rb = rank(a), rank(b)
            if min(ra, rb) < rank(parent(b if ra < rb else a)):
                return True
    except KeyError:
        return True
    return False


#: BFS shortest path: the WAN default and the fallback for topologies
#: without a dedicated strategy; one BFS per destination switch
SHORTEST_PATH = Strategy(
    "shortest-path", _bfs_rule, per_switch=True, touches=_tree_touches
)


def next_switch_routes(
    topology: Topology, next_switch: Callable[[str, str], str | None]
) -> RouteTable:
    """A one-VC table from ``next_switch(switch, destination switch)``:
    each host's switch delivers, every other switch forwards to the
    switch it names — no entry where that is None (packets drop)."""

    def rule(dst: str) -> list[Step]:
        root = topology.host_switch(dst)
        return [
            (sw, None if sw == root else nxt, 0)
            for sw in topology.switches
            if sw == root or (nxt := next_switch(sw, root)) is not None
        ]

    return build_routes(
        topology, Strategy("next-switch", lambda _topo: (rule, 1), per_switch=True)
    )


# ---------------------------------------------------------------------------
# up*/down*
# ---------------------------------------------------------------------------

def updown(
    topology: Topology,
    neighbors: dict[str, list[str]],
    rank: dict[str, int],
    hosts: Iterable[str],
) -> Callable[[str], dict[str, tuple[str, ...]]]:
    """up*/down* routing over the switch graph ``neighbors`` of
    ``topology``.

    ``rank`` orders the switches: a move to a smaller rank is *up*, to
    a larger one *down*. A legal path climbs zero or more up moves,
    then descends zero or more down moves — never down-then-up — so
    routes along legal paths close no channel dependency cycle on one
    VC.

    Returns ``toward(root)``, memoised per destination switch: for every
    switch other than ``root`` with a legal path to it, the neighbours
    on a shortest legal path in (rank, name) order. A switch descends
    wherever a pure-down path is as short as any legal one. Every
    switch holding one of ``hosts`` must reach every other's: one that
    cannot raises :class:`RoutingError` naming the host pair.
    """
    at: dict[str, str] = {}  # host switch -> its first host, for errors
    for h in hosts:
        at.setdefault(topology.host_switch(h), h)
    order = {sw: (r, sw) for sw, r in rank.items()}
    ups = {v: sorted((u for u in nbs if rank[u] < rank[v]), key=order.__getitem__)
           for v, nbs in neighbors.items()}
    downs = {v: sorted((u for u in nbs if rank[u] > rank[v]), key=order.__getitem__)
             for v, nbs in neighbors.items()}
    # an up move's far end ranks lower: this order settles it first
    by_rank = sorted(neighbors, key=rank.__getitem__)

    @cache
    def toward(root: str) -> dict[str, tuple[str, ...]]:
        down = {root: 0}  # the shortest pure-down path to root
        queue = deque([root])
        while queue:
            v = queue.popleft()
            for u in ups[v]:  # u moves down to v
                if u not in down:
                    down[u] = down[v] + 1
                    queue.append(u)
        legal: dict[str, int] = {}  # the shortest legal path to root
        for v in by_rank:
            best = min([down.get(v, _INF), *(legal[u] + 1 for u in ups[v] if u in legal)])
            if best < _INF:
                legal[v] = best
        hops: dict[str, tuple[str, ...]] = {}
        for v, d in legal.items():
            if v == root:
                continue
            if down.get(v) == d:  # descend
                hops[v] = tuple(u for u in downs[v] if down.get(u) == d - 1)
            else:  # climb
                hops[v] = tuple(u for u in ups[v] if legal.get(u) == d - 1)
            if not hops[v]:  # pragma: no cover - contradicts legal
                raise RoutingError(
                    f"internal: no consistent up/down hop at {v} toward {root}"
                )
        for sw, h in at.items():
            if sw != root and sw not in hops:
                raise RoutingError(
                    f"the topology severs {h}->{at[root]}: no legal up*/down* path"
                )
        return hops

    return toward


# ---------------------------------------------------------------------------
# Fat-Tree up/down
# ---------------------------------------------------------------------------

def _fattree_tier(switch: str) -> int:
    """A fat-tree switch's tier as its up*/down* rank: core 0, agg 1,
    edge 2."""
    for rank, tier in enumerate(("core", "agg", "edge")):
        if switch.startswith(tier):
            return rank
    raise RoutingError(f"{switch!r} is not a fat-tree switch name")


def fattree_candidates(
    topo: Topology,
) -> dict[tuple[str, str], tuple[str, ...]]:
    """The fat-tree's equivalent next hops: for every (switch,
    destination host) with a legal up*/down* path, tiers as the rank,
    in destination-then-switch order, the neighbors toward it — the
    host itself at its switch, else those on a shortest legal path, by
    name (on an intact fat-tree, the one downward switch when the
    destination lies below, else every uplink). Raises
    :class:`RoutingError` when a host's switch cannot reach another's.

    Up/down routing (:data:`FATTREE_UPDOWN`) hashes one of them; ECMP
    (:mod:`repro.core.rules_ecmp`) spreads flows over all of them.
    Resolving a neighbor to the switch's port is left to the caller, so
    up/down routing looks up only the uplink it picks.
    """
    rank = {sw: _fattree_tier(sw) for sw in topo.switches}
    toward = updown(topo, topo.switch_neighbors(), rank, topo.hosts)
    candidates: dict[tuple[str, str], tuple[str, ...]] = {}
    for dst in topo.hosts:
        root = topo.host_switch(dst)
        hops = toward(root)
        for sw in topo.switches:
            if sw == root or sw in hops:
                candidates[(sw, dst)] = (dst,) if sw == root else hops[sw]
    return candidates


def _updown_rule(topo: Topology) -> PreparedRule:
    """Up*/down* with the tiers as the rank: a unique hop is taken, a
    choice is hashed on (destination, switch), the standard static
    load-spreading choice a DFS over the fabric yields. Up-down paths
    cannot deadlock; a degraded fat-tree routes around its missing
    links, and a switch with no legal path gets no entry."""
    candidates = fattree_candidates(topo)
    switches = topo.switches

    def rule(dst: str) -> list[Step]:
        # hash only a real choice: host and downward hops are unique
        out: list[Step] = []
        for sw in switches:
            nbs = candidates.get((sw, dst))
            if nbs:
                nb = nbs[_stable_hash(dst, sw) % len(nbs)] if len(nbs) > 1 else nbs[0]
                out.append((sw, None if nb == dst else nb, 0))
        return out

    return rule, 1


#: Fat-Tree routing (the paper's "DFS" strategy)
FATTREE_UPDOWN = Strategy("fat-tree-updown", _updown_rule)


# ---------------------------------------------------------------------------
# Dragonfly minimal
# ---------------------------------------------------------------------------

def _dragonfly_group(switch: str) -> int:
    # names are g{group}r{router} (see repro.topology.dragonfly)
    if not switch.startswith("g") or "r" not in switch:
        raise RoutingError(f"{switch!r} is not a dragonfly router name")
    return int(switch[1 : switch.index("r")])


def _minimal_rule(topo: Topology) -> PreparedRule:
    """Minimal (local-global-local) dragonfly routing with the
    VC-changing deadlock avoidance of Dally & Aoki [44]: the global hop
    lifts packets to VC 1, local hops preserve the incoming VC."""
    switches = topo.switches
    groups: dict[int, list[str]] = {}
    for sw in switches:
        groups.setdefault(_dragonfly_group(sw), []).append(sw)

    # gateway map: for (router r, target group G): which neighbor takes
    # us toward G — either r's own global link, or the local router
    # owning a global link to G.
    global_neighbors: dict[str, dict[int, str]] = {sw: {} for sw in switches}
    for sw in switches:
        for nb in topo.neighbors(sw):
            if topo.is_switch(nb) and _dragonfly_group(nb) != _dragonfly_group(sw):
                global_neighbors[sw][_dragonfly_group(nb)] = nb

    def rule(dst: str) -> list[Step]:
        dst_sw = topo.host_switch(dst)
        dst_group = _dragonfly_group(dst_sw)
        out: list[Step] = []
        for sw in switches:
            my_group = _dragonfly_group(sw)
            if sw == dst_sw:
                out.append((sw, None, 0))
            elif my_group == dst_group:
                out.append((sw, dst_sw, (0, 1)))  # local full mesh: keep VC
            elif dst_group in global_neighbors[sw]:
                # global hop: VC 1
                out.append((sw, global_neighbors[sw][dst_group], 1))
            else:
                # the local gateway router owning such a link: VC 0
                gateways = sorted(
                    r for r in groups[my_group] if dst_group in global_neighbors[r]
                )
                if not gateways:
                    raise RoutingError(
                        f"group {my_group} has no global link to group {dst_group}"
                    )
                out.append(
                    (sw, gateways[_stable_hash(dst, my_group) % len(gateways)], 0)
                )
        return out

    return rule, 2


DRAGONFLY_MINIMAL = Strategy("dragonfly-minimal", _minimal_rule)


# ---------------------------------------------------------------------------
# Dimension order: mesh X-Y / X-Y-Z, torus with datelines (Clue-style [47])
# ---------------------------------------------------------------------------

def _torus_dims(topo: Topology) -> tuple[int, ...]:
    # names are torus2d-XxY / torus3d-XxYxZ (see repro.topology.torus)
    return tuple(int(x) for x in topo.name.split("-")[1].split("x"))


def _dimension_rule(topo: Topology, dims: tuple[int, ...] | None = None) -> PreparedRule:
    """Dimension-order routing: correct the first differing coordinate.

    On a mesh (``dims`` None) this is X-Y (2D) / X-Y-Z (3D) routing
    [45], [46], deadlock-free by routing alone: dimension order forbids
    the turns that close dependency cycles, so a single VC suffices.

    On a torus it takes the shortest wrap direction, with the dateline
    VC scheme the paper groups under "by routing and changing VC"
    (Table III; Clue [47] is the adaptive refinement of the same
    channel discipline). Each dimension ``i`` owns VC pair ``(2i,
    2i+1)``: packets enter a dimension on its even VC and move to the
    odd VC when crossing the wraparound edge ("dateline"). Entering a
    new dimension resets to that dimension's even VC, which keeps the
    channel-dependency graph acyclic (verified by the deadlock
    tests)."""
    by_coords = {coords_of(sw): sw for sw in topo.switches}

    def rule(dst: str) -> list[Step]:
        dst_c = coords_of(topo.host_switch(dst))
        out: list[Step] = []
        for sw in topo.switches:
            c = coords_of(sw)
            if c == dst_c:
                out.append((sw, None, 0))
                continue
            axis = next(i for i in range(len(c)) if c[i] != dst_c[i])
            nxt = list(c)
            if dims is None:
                nxt[axis] += 1 if dst_c[axis] > c[axis] else -1
                out.append((sw, by_coords[tuple(nxt)], 0))
                continue
            k = dims[axis]
            # the shorter way round; ties go forward
            step = 1 if (dst_c[axis] - c[axis]) % k <= (c[axis] - dst_c[axis]) % k else -1
            crosses = c[axis] == (k - 1 if step == 1 else 0)
            nxt[axis] = (c[axis] + step) % k
            # a fresh entry into this dimension starts uncrossed
            vcs = tuple(
                2 * axis + (1 if crosses else in_vc % 2 if in_vc // 2 == axis else 0)
                for in_vc in range(2 * len(dims))
            )
            out.append((sw, by_coords[tuple(nxt)], vcs))
        return out

    return rule, 1 if dims is None else 2 * len(dims)


DIMENSION_ORDER = Strategy("dimension-order", _dimension_rule, per_switch=True)
TORUS_DATELINE = Strategy(
    "torus-dateline",
    lambda topo: _dimension_rule(topo, _torus_dims(topo)),
    per_switch=True,
)


def torus_dateline_routes(topo: Topology, dims: tuple[int, ...]) -> RouteTable:
    return replace(TORUS_DATELINE, rule=partial(_dimension_rule, dims=dims))(topo)


# ---------------------------------------------------------------------------
# The registry
# ---------------------------------------------------------------------------

#: the strategies a config names (``TopologyConfig.routing``); a name
#: that starts with the torus entry's name selects that entry
STRATEGIES: dict[str, Strategy] = {s.name: s for s in (
    SHORTEST_PATH, FATTREE_UPDOWN, DRAGONFLY_MINIMAL, DIMENSION_ORDER, TORUS_DATELINE,
)}

#: the Table III strategies, called as functions of a topology
shortest_path_routes = SHORTEST_PATH
fattree_updown_routes = FATTREE_UPDOWN
dragonfly_minimal_routes = DRAGONFLY_MINIMAL
mesh_dimension_order_routes = DIMENSION_ORDER


def strategy_for(topo: Topology, name: str = "auto") -> Strategy:
    """The strategy routing ``name`` means on ``topo``. ``"auto"``
    picks the Table III strategy of a generated topology by its name,
    shortest-path for anything else. Raises ConfigurationError for a
    name the registry does not hold."""
    if name.startswith(TORUS_DATELINE.name):
        return TORUS_DATELINE
    if name in STRATEGIES:
        return STRATEGIES[name]
    if name != "auto":
        named = sorted(["auto", *STRATEGIES.keys() - {TORUS_DATELINE.name}])
        raise ConfigurationError(
            f"unknown routing strategy {name!r}; choose from "
            f"{named} or {TORUS_DATELINE.name!r}"
        )
    from repro.routing.bcube import BCUBE, HYPER_BCUBE

    for prefix, strategy in (
        ("bcube", BCUBE), ("hyperbcube", HYPER_BCUBE),
        ("fat-tree", FATTREE_UPDOWN), ("dragonfly", DRAGONFLY_MINIMAL),
        ("mesh", DIMENSION_ORDER),
        ("torus2d", TORUS_DATELINE), ("torus3d", TORUS_DATELINE),
    ):
        if topo.name.startswith(prefix):
            return strategy
    return SHORTEST_PATH


def routes_for(topo: Topology) -> RouteTable:
    """Pick the Table III strategy for a generated topology by name."""
    return build_routes(topo, strategy_for(topo))
