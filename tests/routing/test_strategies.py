"""Table III routing strategies: reachability, minimality, VC usage."""

import hashlib

import pytest

from repro.routing import (
    dragonfly_minimal_routes,
    fattree_updown_routes,
    mesh_dimension_order_routes,
    routes_for,
    shortest_path_routes,
    torus_dateline_routes,
)
from repro.topology import (
    chain,
    coords_of,
    dragonfly,
    fat_tree,
    mesh2d,
    mesh3d,
    torus2d,
    torus3d,
)
from repro.util.errors import RoutingError


def test_all_strategies_route_all_pairs(fattree4, dragonfly492, torus55):
    for topo, table in [
        (fattree4, fattree_updown_routes(fattree4)),
        (dragonfly492, dragonfly_minimal_routes(dragonfly492)),
        (torus55, torus_dateline_routes(torus55, (5, 5))),
    ]:
        table.validate_all_pairs()


def test_fattree_paths_at_most_4_switch_hops(fattree4):
    table = fattree_updown_routes(fattree4)
    for src in fattree4.hosts[:4]:
        for dst in fattree4.hosts:
            if src != dst:
                assert len(table.trace(src, dst)) <= 5  # edge-agg-core-agg-edge


def test_fattree_same_edge_is_one_hop(fattree4):
    table = fattree_updown_routes(fattree4)
    # h0 and h1 share edge switch edge0-0
    assert table.trace("h0", "h1") == ["edge0-0"]


def test_fattree_updown_table_is_pinned():
    """Up/down routing is a destination-hash pick over the candidate
    walk it shares with ECMP. The k=8 table — every hop, in insertion
    order — is pinned by hash, so any change to the walk or the pick
    shows here."""
    rows = [
        (sw, dst, in_vc, hop.port.node, hop.port.index, hop.vc)
        for sw, dst, in_vc, hop in fattree_updown_routes(fat_tree(8)).entries()
    ]
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "e12972076f4299c457026240040bb33773456eb83cdc3eb311ac8ea50f87bc6b"
    )


def test_dragonfly_minimal_at_most_4_switches(dragonfly492):
    table = dragonfly_minimal_routes(dragonfly492)
    for src in dragonfly492.hosts[::7]:
        for dst in dragonfly492.hosts[::5]:
            if src != dst:
                # src router - gateway - remote gateway - dst router
                assert len(table.trace(src, dst)) <= 4


def test_dragonfly_uses_two_vcs(dragonfly492):
    table = dragonfly_minimal_routes(dragonfly492)
    assert table.num_vcs == 2


def test_mesh_xy_is_dimension_ordered():
    topo = mesh2d(4, 4)
    table = mesh_dimension_order_routes(topo)
    path = table.trace("h0", "h15")  # (0,0) -> (3,3)
    coords = [coords_of(s) for s in path]
    # x changes first, then y: once y starts changing, x is final
    y_started = False
    for a, b in zip(coords, coords[1:]):
        if a[1] != b[1]:
            y_started = True
        if y_started:
            assert a[0] == b[0]


def test_mesh_xyz_routes_all_pairs():
    topo = mesh3d(3, 3, 3)
    mesh_dimension_order_routes(topo).validate_all_pairs()


def test_torus_takes_shortest_wrap_direction():
    topo = torus2d(5, 5)
    table = torus_dateline_routes(topo, (5, 5))
    # (0,0) -> (4,0): wrap backwards is 1 hop
    src = topo.hosts_of_switch("s0-0")[0]
    dst = topo.hosts_of_switch("s4-0")[0]
    assert len(table.trace(src, dst)) == 2


def test_torus_vc_count():
    t2 = torus_dateline_routes(torus2d(4, 4), (4, 4))
    t3 = torus_dateline_routes(torus3d(3, 3, 3), (3, 3, 3))
    assert t2.num_vcs == 4
    assert t3.num_vcs == 6


def test_shortest_path_on_chain(chain8):
    table = shortest_path_routes(chain8)
    assert len(table.trace("h0", "h7")) == 8  # all switches in line


def test_routes_for_dispatch():
    assert routes_for(fat_tree(4)).num_vcs == 1
    assert routes_for(dragonfly(2, 3, 1)).num_vcs == 2
    assert routes_for(torus2d(3, 3)).num_vcs == 4
    assert routes_for(torus3d(3, 3, 3)).num_vcs == 6
    assert routes_for(mesh2d(3, 3)).num_vcs == 1
    assert routes_for(chain(3)).num_vcs == 1


def test_route_table_missing_entry_raises(chain8):
    table = shortest_path_routes(chain8)
    with pytest.raises(RoutingError, match="no route"):
        table.next_hop("s0", "ghost", 0)


def test_trace_same_host_empty(chain8):
    table = shortest_path_routes(chain8)
    assert table.trace("h0", "h0") == []
