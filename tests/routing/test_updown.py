"""Fat-tree up*/down* on degraded fabrics, against a brute-force oracle.

``FATTREE_UPDOWN`` and ``fattree_candidates`` run the one up*/down*
core (:func:`repro.routing.strategies.updown`) with the tiers as the
rank. With links missing, a fat-tree either routes every host pair on
a shortest legal path — one that climbs toward the cores, then
descends, never down-then-up — or refuses with a ``RoutingError``
naming a pair no legal path joins. The oracle below searches
(switch, phase) states directly: phase 0 may still climb, phase 1 only
descends.
"""

from __future__ import annotations

import re
from collections import deque

import pytest

from repro.routing.strategies import (
    FATTREE_UPDOWN,
    build_routes,
    fattree_candidates,
)
from repro.topology import fat_tree
from repro.topology.diff import rebuild, removable_switch_links
from repro.topology.graph import Topology
from repro.util.errors import RoutingError
from tests.proptools import prop_cases, seeded_cases

TIER = {"core": 0, "agg": 1, "edge": 2}


def _tier(switch: str) -> int:
    return next(rank for name, rank in TIER.items() if switch.startswith(name))


def _legal_distances(nbrs: dict[str, list[str]], root: str) -> dict[tuple[str, int], int]:
    """Shortest legal switch-hop count from each (switch, phase) to
    ``root`` over the switch graph ``nbrs``, by a backward BFS over the
    states: a climb keeps phase 0, a descent enters phase 1 from either
    phase."""
    dist = {(root, 0): 0, (root, 1): 0}
    queue = deque(dist)
    while queue:
        v, phase = queue.popleft()
        for u in nbrs[v]:
            if _tier(v) < _tier(u):  # u climbs to v
                preds = [(u, 0)] if phase == 0 else []
            else:  # u descends to v
                preds = [(u, 0), (u, 1)] if phase == 1 else []
            for state in preds:
                if state not in dist:
                    dist[state] = dist[(v, phase)] + 1
                    queue.append(state)
    return dist


def _legal_next(nbrs: dict[str, list[str]], dist, sw: str) -> set[str]:
    """``sw``'s neighbours on a shortest legal path from phase 0."""
    return {
        u for u in nbrs[sw]
        if dist.get((u, 0 if _tier(u) < _tier(sw) else 1)) == dist[(sw, 0)] - 1
    }


def _degraded(base: Topology, rng, max_drops: int) -> Topology:
    """``base`` without 1..max_drops switch links, still connected."""
    dropped: set = set()
    for _ in range(int(rng.integers(1, max_drops + 1))):
        candidates = removable_switch_links(rebuild(base, drop_links=dropped))
        if not candidates:
            break
        dropped.add(candidates[int(rng.integers(len(candidates)))])
    return rebuild(base, drop_links=dropped)


def _check(topo: Topology) -> bool:
    """One degraded fat-tree against the oracle; True when it routed."""
    nbrs = topo.switch_neighbors()
    host_switches = sorted({topo.host_switch(h) for h in topo.hosts})
    oracle = {root: _legal_distances(nbrs, root) for root in host_switches}
    holes = {
        (src, root)
        for root in host_switches for src in host_switches
        if (src, 0) not in oracle[root]
    }
    try:
        table = build_routes(topo, FATTREE_UPDOWN)
    except RoutingError as exc:
        pair = re.search(r"severs (\S+)->(\S+):", str(exc))
        assert pair, exc
        src, dst = (topo.host_switch(h) for h in pair.groups())
        assert (src, dst) in holes, (topo.links, exc)
        with pytest.raises(RoutingError, match="severs"):
            fattree_candidates(topo)
        return False
    assert not holes, f"a silent hole: {sorted(holes)}"
    candidates = fattree_candidates(topo)
    for dst in topo.hosts:
        root = topo.host_switch(dst)
        dist = oracle[root]
        for sw in topo.switches:
            if sw == root:
                assert candidates[(sw, dst)] == (dst,)
            elif (sw, 0) in dist:
                assert set(candidates[(sw, dst)]) == _legal_next(nbrs, dist, sw), (sw, dst)
            else:
                assert (sw, dst) not in candidates
        for src in host_switches:
            path = [node for node, *_ in table.walk(src, dst)]
            tiers = [_tier(node) for node in path]
            top = tiers.index(min(tiers))
            assert tiers[: top + 1] == sorted(tiers[: top + 1], reverse=True), path
            assert tiers[top:] == sorted(tiers[top:]), path
            assert len(path) - 1 == dist[(src, 0)], (path, dist[(src, 0)])
    return True


def test_degraded_fat_trees_match_the_oracle():
    # up to 7 of k=4's 32 switch links, up to 16 of k=8's 128: at the
    # default count two k=4 cases are refused, every other case routes
    bases = [(fat_tree(4), 7), (fat_tree(8), 16)]
    routed = 0
    for i, rng in seeded_cases(prop_cases(12), 20261019, "updown-oracle"):
        base, max_drops = bases[i % len(bases)]
        routed += _check(_degraded(base, rng, max_drops))
    assert routed, "no degraded fat-tree routed"


def test_intact_fat_trees_match_the_oracle():
    for k in (4, 8):
        assert _check(fat_tree(k))


def test_a_switch_that_can_only_leave_down_then_up_is_refused():
    """agg0-1 keeps no core link and edge0-1 keeps only agg0-1: edge0-1
    leaves its pod only down-then-up (via edge0-0), though the fabric
    is connected. Every edge switch outside pod 0 loses its routes to
    edge0-1's hosts and edge0-1 loses its routes out: the build must
    refuse, not leave those entries out."""
    base = fat_tree(4)
    topo = rebuild(base, drop_links={
        ("agg0-1", "core1-0"), ("agg0-1", "core1-1"), ("agg0-0", "edge0-1"),
    })
    assert len(topo.links) == len(base.links) - 3
    assert not _check(topo)
    stranded = set(topo.hosts_of_switch("edge0-1"))
    for build in (FATTREE_UPDOWN, fattree_candidates):
        with pytest.raises(RoutingError, match="severs") as caught:
            build(topo)
        assert stranded & set(re.findall(r"h\d+", str(caught.value)))
