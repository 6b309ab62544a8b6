"""Table III routing strategies.

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
"""

from __future__ import annotations

import hashlib

from repro.routing.table import Hop, RouteTable
from repro.topology.diff import TopologyDiff, link_key
from repro.topology.graph import Topology, bfs_parents
from repro.topology.torus import coords_of
from repro.util.errors import RoutingError


def _stable_hash(*parts: object) -> int:
    h = hashlib.sha256("|".join(map(repr, parts)).encode()).digest()
    return int.from_bytes(h[:8], "little")


def _host_port_hop(topo: Topology, switch: str, host: str, vc: int = 0) -> Hop:
    link = topo.link_between(switch, host)
    return Hop(link.port_on(switch), vc)


# ---------------------------------------------------------------------------
# Generic shortest path (BFS)
# ---------------------------------------------------------------------------

def _uplink_hop(topo: Topology, switch: str, parent: str) -> Hop:
    return Hop(topo.link_between(switch, parent).port_on(switch), 0)


def shortest_path_routes(topo: Topology) -> RouteTable:
    """BFS shortest-path, destination-based. The WAN default and the
    fallback for topologies without a dedicated strategy.

    A BFS tree rooted at a destination's switch points every reachable
    switch along the tree toward that root, so it depends on the
    destination's switch, not on the host: it runs once per destination
    switch (:func:`bfs_parents`), and every host on that switch reuses
    the resulting hop list. Entries come out host by host in
    ``topo.hosts`` order, each host's switches in ``topo.switches``
    order."""
    table = RouteTable(topo, num_vcs=1)
    switches = topo.switches
    sw_nbrs = topo.switch_neighbors()
    # one hop per edge, built once: hops are identical across
    # destinations sharing an exit port, so a k-ary fat-tree allocates
    # O(ports), not O(routes). hop_to[v][u] leaves v on the v--u link
    hop_to = {
        sw: {nb: _uplink_hop(topo, sw, nb) for nb in nbrs}
        for sw, nbrs in sw_nbrs.items()
    }
    # per destination switch: (switch, hop toward it) in switch order,
    # hop None at the root itself (its hop is the host's own port)
    trees: dict[str, list[tuple[str, Hop | None]]] = {}
    items: list[tuple[str, str, int | None, Hop]] = []
    for dst in topo.hosts:
        root = topo.host_switch(dst)
        tree = trees.get(root)
        if tree is None:
            parent = bfs_parents(root, sw_nbrs)
            tree = trees[root] = [
                (sw, None if sw == root else hop_to[sw][parent[sw]])
                for sw in switches
                if sw in parent
            ]
        host_hop = _host_port_hop(topo, root, dst)
        items.extend([
            (sw, dst, None, host_hop if hop is None else hop)
            for sw, hop in tree
        ])
    table.set_hops(items)
    return table


def _rewired_switches(
    old: Topology, new: Topology, diff: TopologyDiff
) -> set[str] | None:
    """The switches whose ports the edit renumbered — the endpoints of
    the diff's links — or None when the edit is not a plain link edit
    the repair can follow: a node or a host link changed, another
    node's neighbors differ, or an endpoint's surviving neighbors
    changed order (a reordered scan can change any BFS tree)."""
    touched = diff.touched_nodes()
    if (
        old.switches != new.switches
        or old.hosts != new.hosts
        or not all(map(new.is_switch, touched))
    ):
        return None
    for node in new.nodes:
        if node not in touched and old.neighbors(node) != new.neighbors(node):
            return None
    for node in touched:
        kept_old = [
            nb for nb in old.neighbors(node)
            if link_key(node, nb) not in diff.removed_links
        ]
        kept_new = [
            nb for nb in new.neighbors(node)
            if link_key(node, nb) not in diff.added_links
        ]
        if kept_old != kept_new:
            return None
    return touched


def repair_shortest_path(
    old: RouteTable, topo: Topology, diff: TopologyDiff
) -> tuple[RouteTable, frozenset[str]]:
    """``shortest_path_routes(topo)``, derived from ``old`` — which must
    be ``shortest_path_routes`` of the topology ``diff`` starts from —
    together with the switches that have an entry whose hop moved.

    The BFS runs again only for the destination switches whose tree the
    edit can change. The old tree, read off ``old``'s hops, decides:

    * a removed link changes a tree only if it is a tree edge;
    * an added link a--b, with a the end the BFS dequeues first,
      changes a tree only if b's parent is dequeued after a, so that b
      is still undiscovered when a scans it. Otherwise both scans of
      the link find their far end discovered, and every other scan
      keeps its order. BFS dequeues by depth, then by the neighbor
      positions along the tree path, compared in order.

    Every entry at an edited link's endpoint is derived again, host
    hops included, because its ports renumber. ``old``'s keys and their
    order are kept (:meth:`RouteTable.repaired`). An edit that adds or
    removes a node, moves a host, reorders a node's neighbors or would
    add or drop an entry falls back to the full strategy, with every
    switch reported moved."""
    src = old.topology
    switches = topo.switches
    rewired = None
    if not old._exact and len(old) == len(switches) * len(src.hosts):
        rewired = _rewired_switches(src, topo, diff)
    if rewired is None:
        return shortest_path_routes(topo), frozenset(switches)

    wild = old._wild
    removed = [tuple(key) for key in diff.removed_links]
    added = [tuple(key) for key in diff.added_links]
    dsts_of: dict[str, list[str]] = {}
    for dst in topo.hosts:
        dsts_of.setdefault(topo.host_switch(dst), []).append(dst)
    sw_nbrs = None
    hops: dict[tuple[str, str], Hop] = {}
    for root, dsts in dsts_of.items():
        rep = dsts[0]

        def parent(v: str) -> str:
            """v's parent in the old tree; the root is its own."""
            if v == root:
                return v
            return src.link_of_port(wild[(v, rep)].port).other(v)

        def rank(v: str) -> tuple[int, list[int]]:
            """v's place in the old BFS's dequeue order."""
            path = []
            while v != root:
                p = parent(v)
                path.append(src.neighbors(p).index(v))
                v = p
            return len(path), path[::-1]

        regrown = any(parent(a) == b or parent(b) == a for a, b in removed)
        for a, b in added:
            if regrown:
                break
            ra, rb = rank(a), rank(b)
            regrown = min(ra, rb) < rank(parent(b if ra < rb else a))
        if regrown:
            if sw_nbrs is None:
                sw_nbrs = topo.switch_neighbors()
            redo = bfs_parents(root, sw_nbrs)
            if len(redo) != len(switches):  # an entry would disappear
                return shortest_path_routes(topo), frozenset(switches)
        else:
            redo = {sw: parent(sw) for sw in rewired}
        for sw, p in redo.items():
            if sw == root:
                if sw in rewired:
                    for dst in dsts:
                        hop = _host_port_hop(topo, sw, dst)
                        if hop != wild[(sw, dst)]:
                            hops[(sw, dst)] = hop
            elif sw in rewired or p != parent(sw):
                hop = _uplink_hop(topo, sw, p)
                if hop != wild[(sw, rep)]:
                    for dst in dsts:
                        hops[(sw, dst)] = hop
    table = old.repaired(topo, hops)
    return table, frozenset(sw for sw, _dst in hops)


# ---------------------------------------------------------------------------
# Fat-Tree up/down
# ---------------------------------------------------------------------------

def _fattree_tier(switch: str) -> str:
    for tier in ("core", "agg", "edge"):
        if switch.startswith(tier):
            return tier
    raise RoutingError(f"{switch!r} is not a fat-tree switch name")


def fattree_candidates(
    topo: Topology,
) -> dict[tuple[str, str], tuple[str, ...]]:
    """The fat-tree's equivalent next hops: for every (switch,
    destination host), in destination-then-switch order, the neighbors
    toward it — the host itself or the one downward switch when the
    destination lies below, else every uplink neighbor, sorted by name.

    Up/down routing (:func:`fattree_updown_routes`) hashes one of them;
    ECMP (:mod:`repro.core.rules_ecmp`) spreads flows over all of them.
    Resolving a neighbor to the switch's port is left to the caller, so
    up/down routing looks up only the uplink it picks.
    """
    # each switch's downward (in neighbor order) and upward neighbors
    downs: dict[str, list[str]] = {}
    ups: dict[str, tuple[str, ...]] = {}
    for sw in topo.switches:
        tier = _fattree_tier(sw)
        nbs = [nb for nb in topo.neighbors(sw) if topo.is_switch(nb)]
        child = {"core": "agg", "agg": "edge"}.get(tier)
        parent = {"edge": "agg", "agg": "core"}.get(tier)
        downs[sw] = [nb for nb in nbs if _fattree_tier(nb) == child]
        ups[sw] = tuple(sorted(nb for nb in nbs if _fattree_tier(nb) == parent))

    # downward reachability: which hosts live below each switch
    below: dict[str, set[str]] = {s: set() for s in topo.switches}
    for h in topo.hosts:
        below[topo.host_switch(h)].add(h)
    # edges feed aggs, aggs feed cores (2 sweeps are enough: 3 tiers)
    for _ in range(2):
        for sw in topo.switches:
            for nb in downs[sw]:
                below[sw] |= below[nb]

    candidates: dict[tuple[str, str], tuple[str, ...]] = {}
    for dst in topo.hosts:
        dst_sw = topo.host_switch(dst)
        for sw in topo.switches:
            if sw == dst_sw:
                candidates[(sw, dst)] = (dst,)
                continue
            # downward if some child subtree holds dst
            down = next((nb for nb in downs[sw] if dst in below[nb]), None)
            if down is not None:
                candidates[(sw, dst)] = (down,)
                continue
            if not ups[sw]:
                raise RoutingError(f"{sw} cannot reach {dst}")
            candidates[(sw, dst)] = ups[sw]
    return candidates


def fattree_updown_routes(topo: Topology) -> RouteTable:
    """Fat-Tree routing (the paper's "DFS" strategy).

    Downward hops follow the unique path to the destination edge
    switch; upward hops pick deterministically (destination hash) among
    the up-links, which is the standard static load-spreading choice a
    DFS over the fabric yields. Up-down paths cannot deadlock.
    """
    table = RouteTable(topo, num_vcs=1)
    items: list[tuple[str, str, int | None, Hop]] = []
    for (sw, dst), nbs in fattree_candidates(topo).items():
        # hash only a real choice: host and downward hops are unique
        nb = nbs[_stable_hash(dst, sw) % len(nbs)] if len(nbs) > 1 else nbs[0]
        items.append((sw, dst, None, Hop(topo.link_between(sw, nb).port_on(sw), 0)))
    table.set_hops(items)
    return table


# ---------------------------------------------------------------------------
# Dragonfly minimal
# ---------------------------------------------------------------------------

def _dragonfly_group(switch: str) -> int:
    # names are g{group}r{router} (see repro.topology.dragonfly)
    if not switch.startswith("g") or "r" not in switch:
        raise RoutingError(f"{switch!r} is not a dragonfly router name")
    return int(switch[1 : switch.index("r")])


def dragonfly_minimal_routes(topo: Topology) -> RouteTable:
    """Minimal (local-global-local) dragonfly routing with the
    VC-changing deadlock avoidance of Dally & Aoki [44]: the global hop
    lifts packets to VC 1, local hops preserve the incoming VC.
    """
    table = RouteTable(topo, num_vcs=2)
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

    for dst in topo.hosts:
        dst_sw = topo.host_switch(dst)
        dst_group = _dragonfly_group(dst_sw)
        for sw in switches:
            my_group = _dragonfly_group(sw)
            if sw == dst_sw:
                # deliver: preserve VC class on the host port
                for vc in (0, 1):
                    table.set_hop(sw, dst, _host_port_hop(topo, sw, dst, vc), in_vc=vc)
                continue
            if my_group == dst_group:
                link = topo.link_between(sw, dst_sw)  # local full mesh
                for vc in (0, 1):
                    table.set_hop(sw, dst, Hop(link.port_on(sw), vc), in_vc=vc)
                continue
            # other group: do I own a global link to it?
            target = global_neighbors[sw].get(dst_group)
            if target is not None:
                link = topo.link_between(sw, target)
                table.set_hop(sw, dst, Hop(link.port_on(sw), 1))  # global hop: VC 1
                continue
            # find the local gateway router owning such a link
            gateways = sorted(
                r for r in groups[my_group] if dst_group in global_neighbors[r]
            )
            if not gateways:
                raise RoutingError(
                    f"group {my_group} has no global link to group {dst_group}"
                )
            gw = gateways[_stable_hash(dst, my_group) % len(gateways)]
            link = topo.link_between(sw, gw)
            table.set_hop(sw, dst, Hop(link.port_on(sw), 0))  # local hop: VC 0
    return table


# ---------------------------------------------------------------------------
# Mesh dimension-order (X-Y / X-Y-Z)
# ---------------------------------------------------------------------------

def _grid_switch_by_coords(topo: Topology) -> dict[tuple[int, ...], str]:
    return {coords_of(sw): sw for sw in topo.switches}


def mesh_dimension_order_routes(topo: Topology) -> RouteTable:
    """X-Y (2D) / X-Y-Z (3D) dimension-order mesh routing [45], [46].

    Deadlock-free by routing alone: dimension order forbids the turns
    that close dependency cycles, so a single VC suffices.
    """
    table = RouteTable(topo, num_vcs=1)
    by_coords = _grid_switch_by_coords(topo)

    for dst in topo.hosts:
        dst_sw = topo.host_switch(dst)
        dst_c = coords_of(dst_sw)
        for sw in topo.switches:
            if sw == dst_sw:
                table.set_hop(sw, dst, _host_port_hop(topo, sw, dst))
                continue
            c = coords_of(sw)
            nxt = list(c)
            for axis in range(len(c)):
                if c[axis] != dst_c[axis]:
                    nxt[axis] += 1 if dst_c[axis] > c[axis] else -1
                    break
            nb = by_coords[tuple(nxt)]
            link = topo.link_between(sw, nb)
            table.set_hop(sw, dst, Hop(link.port_on(sw), 0))
    return table


# ---------------------------------------------------------------------------
# Torus dimension-order with datelines (Clue-style [47])
# ---------------------------------------------------------------------------

def torus_dateline_routes(topo: Topology, dims: tuple[int, ...]) -> RouteTable:
    """Dimension-order torus routing, shortest wrap direction, with the
    dateline VC scheme the paper groups under "by routing and changing
    VC" (Table III; Clue [47] is the adaptive refinement of the same
    channel discipline).

    Each dimension ``i`` owns VC pair ``(2i, 2i+1)``: packets enter a
    dimension on its even VC and move to the odd VC when crossing the
    wraparound edge ("dateline"). Entering a new dimension resets to
    that dimension's even VC, which keeps the channel-dependency graph
    acyclic (verified by the deadlock tests).
    """
    ndims = len(dims)
    table = RouteTable(topo, num_vcs=2 * ndims)
    by_coords = _grid_switch_by_coords(topo)

    for dst in topo.hosts:
        dst_sw = topo.host_switch(dst)
        dst_c = coords_of(dst_sw)
        for sw in topo.switches:
            if sw == dst_sw:
                for vc in range(2 * ndims):
                    table.set_hop(sw, dst, _host_port_hop(topo, sw, dst, vc), in_vc=vc)
                continue
            c = coords_of(sw)
            axis = next(i for i in range(ndims) if c[i] != dst_c[i])
            k = dims[axis]
            fwd = (dst_c[axis] - c[axis]) % k
            back = (c[axis] - dst_c[axis]) % k
            step = 1 if fwd <= back else -1  # ties go forward
            nxt_coord = (c[axis] + step) % k
            crosses = (step == 1 and c[axis] == k - 1) or (
                step == -1 and c[axis] == 0
            )
            nxt = list(c)
            nxt[axis] = nxt_coord
            link = topo.link_between(sw, by_coords[tuple(nxt)])
            port = link.port_on(sw)
            for in_vc in range(2 * ndims):
                if in_vc // 2 == axis:
                    crossed_bit = in_vc % 2
                else:
                    crossed_bit = 0  # fresh entry into this dimension
                out_vc = 2 * axis + (1 if crosses else crossed_bit)
                table.set_hop(sw, dst, Hop(port, out_vc), in_vc=in_vc)
    return table


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def routes_for(topo: Topology) -> RouteTable:
    """Pick the Table III strategy for a generated topology by name."""
    name = topo.name
    if name.startswith("bcube"):
        from repro.routing.bcube import bcube_routes

        return bcube_routes(topo)
    if name.startswith("hyperbcube"):
        from repro.routing.bcube import hyper_bcube_routes

        return hyper_bcube_routes(topo)
    if name.startswith("fat-tree"):
        return fattree_updown_routes(topo)
    if name.startswith("dragonfly"):
        return dragonfly_minimal_routes(topo)
    if name.startswith("mesh"):
        return mesh_dimension_order_routes(topo)
    if name.startswith("torus2d"):
        dims = tuple(int(x) for x in name.split("-")[1].split("x"))
        return torus_dateline_routes(topo, dims)
    if name.startswith("torus3d"):
        dims = tuple(int(x) for x in name.split("-")[1].split("x"))
        return torus_dateline_routes(topo, dims)
    return shortest_path_routes(topo)
