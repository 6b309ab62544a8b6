"""Shortest-path route tables, pinned by hash.

``shortest_path_routes`` is the default strategy of every custom config
(the lossy scale and reconfiguration workloads, WANs) and the one whose
output rule synthesis sees after every 1-link edit. Each table below —
every entry, in ``entries()`` insertion order — is pinned by a SHA-256,
so a change to the BFS visit order (which parent a switch adopts) or to
the order entries are emitted in shows here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import TopologyConfig
from repro.routing import shortest_path_routes
from repro.topology import fat_tree, torus2d
from repro.topology.diff import link_key, rebuild, removable_switch_links
from repro.topology.graph import Topology
from repro.topology.zoo import build_zoo_topology, zoo_entry


def _digest(topo: Topology) -> str:
    rows = [
        (sw, dst, in_vc, hop.port.node, hop.port.index, hop.vc)
        for sw, dst, in_vc, hop in shortest_path_routes(topo).entries()
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _fat_tree_k8() -> Topology:
    """Fat-tree k=8 the way a custom config rebuilds it."""
    return TopologyConfig.from_topology(fat_tree(8)).build()


def _first_link(topo: Topology, tiers: tuple[str, str]):
    return next(
        key for key in removable_switch_links(topo)
        if tuple(sorted(n.split("-")[0].rstrip("0123456789") for n in key))
        == tiers
    )


def _edge_agg_drop() -> Topology:
    base = _fat_tree_k8()
    return rebuild(base, drop_links={_first_link(base, ("agg", "edge"))})


def _agg_core_drop() -> Topology:
    base = _fat_tree_k8()
    return rebuild(base, drop_links={_first_link(base, ("agg", "core"))})


def _readd() -> Topology:
    """The agg-core link dropped and connected again: it comes back
    last, on new port numbers, so the table differs from the base's."""
    base = _fat_tree_k8()
    key = _first_link(base, ("agg", "core"))
    return rebuild(rebuild(base, drop_links={key}), add_links=[key])


CASES = {
    "fat-tree-k8": (
        _fat_tree_k8,
        "cd95d3e2542514a43f4cd18579f695a06244e967593c116b011b2d335c5e0ee5",
    ),
    "fat-tree-k8-drop-edge-agg": (
        _edge_agg_drop,
        "46ec763a16b41cd1103c93fd81fed116dadeb8e7537fb37c8f740e83b5c81677",
    ),
    "fat-tree-k8-drop-agg-core": (
        _agg_core_drop,
        "24ba3519774a7fdd46bf6fa8f71081365bde3ab720c9075b3b57344dbced55c8",
    ),
    "fat-tree-k8-readd-agg-core": (
        _readd,
        "b943b65802f2aa4208d7c433b32e074779755c7b699aeb7c598ffb9f3f3f305f",
    ),
    "torus2d-5x5": (
        lambda: torus2d(5, 5),
        "8464235e7845f966947e419e55eae1ee19a019bd05389a0c0a155a975afc4f3a",
    ),
    "zoo-Interoute": (
        lambda: build_zoo_topology(zoo_entry("Interoute"), hosts_per_switch=1),
        "ac2ba64803107909ece343c9f53739acf29e582da3b7213f945806dd2de83302",
    ),
}


@pytest.mark.parametrize("name", list(CASES))
def test_shortest_path_table_is_pinned(name):
    build, expected = CASES[name]
    assert _digest(build()) == expected


def test_edits_touch_the_intended_tiers():
    """The edit cases really are one edge-agg drop, one agg-core drop
    and a re-add that restores the link set."""
    base = _fat_tree_k8()
    keys = {link_key(*link.endpoints) for link in base.links}
    for build, tiers in ((_edge_agg_drop, ("agg", "edge")),
                         (_agg_core_drop, ("agg", "core"))):
        edited = {link_key(*link.endpoints) for link in build().links}
        (gone,) = keys - edited
        assert _first_link(base, tiers) == gone
    assert {link_key(*link.endpoints) for link in _readd().links} == keys
    assert _digest(_readd()) != _digest(base)
