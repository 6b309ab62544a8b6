"""Channel-dependency-graph deadlock analysis (§V-3, Table III)."""

import pytest

from repro.routing import (
    Hop,
    RouteTable,
    assert_deadlock_free,
    channel_dependency_graph,
    dragonfly_minimal_routes,
    fattree_updown_routes,
    find_cycle,
    mesh_dimension_order_routes,
    required_vcs,
    shortest_path_routes,
    torus_dateline_routes,
)
from repro.topology import Topology, dragonfly, fat_tree, mesh2d, torus2d, torus3d
from repro.util.errors import DeadlockError


def test_table3_strategies_are_deadlock_free():
    cases = [
        fattree_updown_routes(fat_tree(4)),
        dragonfly_minimal_routes(dragonfly(4, 9, 2)),
        mesh_dimension_order_routes(mesh2d(4, 4)),
        torus_dateline_routes(torus2d(4, 4), (4, 4)),
        torus_dateline_routes(torus3d(3, 3, 3), (3, 3, 3)),
    ]
    for table in cases:
        assert_deadlock_free(table)


def ring4():
    """A 4-switch ring with one host each."""
    t = Topology("ring4")
    sws = [t.add_switch(f"r{i}") for i in range(4)]
    for i in range(4):
        t.connect(sws[i], sws[(i + 1) % 4])
    for i in range(4):
        h = t.add_host(f"h{i}")
        t.connect(sws[i], h)
    t.validate()
    return t


def clockwise_routes(topo, *, dateline: bool) -> RouteTable:
    """All traffic goes clockwise — cyclic CDG unless a dateline VC is
    used at r3->r0."""
    table = RouteTable(topo, num_vcs=2)
    for dst_i in range(4):
        dst = f"h{dst_i}"
        for i in range(4):
            sw = f"r{i}"
            if i == dst_i:
                link = topo.link_between(sw, dst)
                for vc in (0, 1):
                    table.set_hop(sw, dst, Hop(link.port_on(sw), vc), in_vc=vc)
                continue
            nxt = f"r{(i + 1) % 4}"
            link = topo.link_between(sw, nxt)
            for vc in (0, 1):
                crossing = i == 3
                out_vc = 1 if (dateline and crossing) else vc
                table.set_hop(sw, dst, Hop(link.port_on(sw), out_vc), in_vc=vc)
    return table


def test_unidirectional_ring_without_dateline_deadlocks():
    topo = ring4()
    table = clockwise_routes(topo, dateline=False)
    cycle = find_cycle(table)
    assert cycle is not None
    assert len(cycle) >= 4
    with pytest.raises(DeadlockError, match="cycle"):
        assert_deadlock_free(table)


def test_dateline_breaks_the_ring_cycle():
    topo = ring4()
    table = clockwise_routes(topo, dateline=True)
    assert find_cycle(table) is None


def test_cdg_excludes_host_channels():
    topo = ring4()
    table = clockwise_routes(topo, dateline=True)
    cdg = channel_dependency_graph(table)
    assert cdg
    for ch in cdg:
        assert ch.src.startswith("r") and ch.dst.startswith("r")


def test_required_vcs_counts_used():
    topo = ring4()
    assert required_vcs(clockwise_routes(topo, dateline=False)) == 2  # inherits
    t = shortest_path_routes(fat_tree(4))
    assert required_vcs(t) == 1


def test_shortest_path_bfs_trees_are_acyclic_on_torus():
    """Per-destination BFS trees never wrap a full ring, so generic
    shortest-path happens to be CDG-acyclic even on tori — the danger
    (ring4 above) comes from routing functions that do wrap."""
    topo = torus2d(4, 4)
    table = shortest_path_routes(topo)
    assert find_cycle(table) is None
