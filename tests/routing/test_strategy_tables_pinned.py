"""Every routing strategy's table, pinned by hash.

Each digest is the SHA-256 of a table's ``entries()`` rows — (switch,
destination, in-VC, port node, port index, VC) — in order:

- every Table III strategy on its generator family, and shortest-path
  on the same topologies where hosts do not forward (``routes_for``,
  the by-name default, must pick the family's strategy);
- ``reroute_avoiding`` (up*/down* around failed links) on seeded
  failure sets;
- the distance-vector and adaptive protocols' initial and repaired
  tables.

A change to a tie-break (a dateline tie, a hashed uplink or gateway
choice, a BFS neighbour scan), a VC assignment or the order entries are
emitted in moves a digest here.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.routing import (
    bcube_routes,
    dragonfly_minimal_routes,
    fattree_updown_routes,
    hyper_bcube_routes,
    mesh_dimension_order_routes,
    reroute_avoiding,
    routes_for,
    shortest_path_routes,
    torus_dateline_routes,
)
from repro.routing.protocols import protocol
from repro.topology import (
    bcube,
    build_zoo_topology,
    chain,
    dragonfly,
    fat_tree,
    hyper_bcube,
    mesh2d,
    mesh3d,
    torus2d,
    torus3d,
    zoo_entry,
)
from repro.topology.diff import link_key, rebuild, removable_switch_links
from repro.topology.graph import Topology
from tests.proptools import random_topology, seeded_cases


def _rows(table) -> str:
    rows = [
        (sw, dst, in_vc, hop.port.node, hop.port.index, hop.vc)
        for sw, dst, in_vc, hop in table.entries()
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


def _zoo(name: str) -> Topology:
    return build_zoo_topology(zoo_entry(name), hosts_per_switch=1)


#: each generator family with its Table III strategy
FAMILIES = {
    "fat-tree-k4": (lambda: fat_tree(4), fattree_updown_routes),
    "fat-tree-k8": (lambda: fat_tree(8), fattree_updown_routes),
    "dragonfly-4-9-2": (lambda: dragonfly(4, 9, 2), dragonfly_minimal_routes),
    "dragonfly-2-3-1": (lambda: dragonfly(2, 3, 1), dragonfly_minimal_routes),
    # two global links per group pair: the gateway pick is hashed
    "dragonfly-4-5-2": (lambda: dragonfly(4, 5, 2), dragonfly_minimal_routes),
    "mesh-3x3": (lambda: mesh2d(3, 3), mesh_dimension_order_routes),
    "mesh-3x3x3": (lambda: mesh3d(3, 3, 3), mesh_dimension_order_routes),
    "torus-5x5": (
        lambda: torus2d(5, 5), lambda t: torus_dateline_routes(t, (5, 5))
    ),
    # even rings: a destination half-way round is a tie, which goes
    # forward
    "torus-4x4": (
        lambda: torus2d(4, 4), lambda t: torus_dateline_routes(t, (4, 4))
    ),
    "torus-3x3x3": (
        lambda: torus3d(3, 3, 3),
        lambda t: torus_dateline_routes(t, (3, 3, 3)),
    ),
    "bcube-4-1": (lambda: bcube(4, 1), bcube_routes),
    "hyperbcube-3": (lambda: hyper_bcube(3), hyper_bcube_routes),
    "chain-8": (lambda: chain(8), shortest_path_routes),
    "zoo-Deltacom": (lambda: _zoo("Deltacom"), shortest_path_routes),
    "zoo-Interoute": (lambda: _zoo("Interoute"), shortest_path_routes),
}

#: families whose hosts have one link, so shortest-path applies
SWITCH_CENTRIC = [
    name for name in FAMILIES if not name.startswith(("bcube", "hyperbcube"))
]


def _failure_set(topo: Topology, rng) -> set[int]:
    """One to three switch links whose joint removal keeps ``topo``
    connected."""
    dropped: set = set()
    for _ in range(int(rng.integers(1, 4))):
        candidates = removable_switch_links(rebuild(topo, drop_links=dropped))
        if not candidates:
            break
        dropped.add(candidates[int(rng.integers(0, len(candidates)))])
    return {l.index for l in topo.links if link_key(*l.endpoints) in dropped}


def _reroute_cases():
    bases = [
        lambda: fat_tree(4), lambda: torus2d(5, 5), lambda: mesh2d(3, 3),
        lambda: dragonfly(2, 3, 1), lambda: _zoo("Deltacom"),
    ]
    for i, rng in seeded_cases(10, 4242, "strategy-pinned", "reroute"):
        if i < len(bases):
            topo = bases[i]()
        else:
            topo = random_topology(rng, min_switches=3, name=f"rand-{i}")
        yield f"reroute-{i}", topo, _failure_set(topo, rng)


PROTOCOL_TOPOLOGIES = {
    "fat-tree-k4": lambda: fat_tree(4),
    "torus-4x4": lambda: torus2d(4, 4),
    "zoo-Deltacom": lambda: _zoo("Deltacom"),
}


def family_digests() -> dict[str, str]:
    out = {}
    for name, (build, strategy) in FAMILIES.items():
        topo = build()
        out[f"family/{name}"] = _rows(strategy(topo))
        if name in SWITCH_CENTRIC:
            out[f"shortest-path/{name}"] = _rows(shortest_path_routes(topo))
    return out


def reroute_digests() -> dict[str, str]:
    return {
        name: _rows(reroute_avoiding(topo, failed))
        for name, topo, failed in _reroute_cases()
    }


def protocol_digests() -> dict[str, str]:
    out = {}
    for name, build in PROTOCOL_TOPOLOGIES.items():
        for i, rng in seeded_cases(2, 4242, "strategy-pinned", name):
            topo = build()
            failed = _failure_set(topo, rng)
            for proto_name in ("distvec", "adaptive"):
                proto = protocol(proto_name, seed=i)
                initial = proto.initial_routes(topo).routes
                repaired = proto.repair_routes(topo, failed).routes
                out[f"{proto_name}/{name}/{i}"] = (
                    f"{_rows(initial)} {_rows(repaired)}"
                )
    return out


PINNED: dict[str, str] = {
    "family/fat-tree-k4": "5e6c782d990ea586c5eb6f80625007addb669bcdbf83a83991c4243d11c8677c",
    "shortest-path/fat-tree-k4": "0a7e899726a7252c7b2de175698d698101163a614a95ddf45457827384617b68",
    "family/fat-tree-k8": "e12972076f4299c457026240040bb33773456eb83cdc3eb311ac8ea50f87bc6b",
    "shortest-path/fat-tree-k8": "cd95d3e2542514a43f4cd18579f695a06244e967593c116b011b2d335c5e0ee5",
    "family/dragonfly-4-9-2": "bf998d3d6f533663d37f004d36aab31173124bd69abc69ef5bccf8a81fb67862",
    "shortest-path/dragonfly-4-9-2": "a05dd18d898288359cdea8c443535b29efb40828e534b37c0b2ea465a87dccb5",
    "family/dragonfly-2-3-1": "e69fb68245615d1d3436d16726c9fa3c11c994ec2e2c76976cee3fdf7eead042",
    "shortest-path/dragonfly-2-3-1": "6d9f0c5915dbdfc83ea618b1ca7cce145445a3ddf80af0f27e6d2e0fc50b87cb",
    "family/dragonfly-4-5-2": "7d09600a9d0b3c24afe7f6b6ab4a89df51d86af87aac9317018b44a9d5fb6f0d",
    "shortest-path/dragonfly-4-5-2": "dbb032a4228b38986af8a794bba22fb2c97f779c2196a441a2ac86f03178734b",
    "family/mesh-3x3": "479da964f9edd5286bcd72dab1971baa1bc706a73362c1c0e85b5e93469119a2",
    "shortest-path/mesh-3x3": "995b5bc41484c5bb42865a65abe42d0a165f3ed26ed5a6d8a2d1346279d8f342",
    "family/mesh-3x3x3": "320c44050f5566284fc316047ebdc6c411d00a488903dfde9cc6a0efa0043d99",
    "shortest-path/mesh-3x3x3": "ca6406dc591eb6f844048834f14885c9bf884a003ab983e5e1f6bfc448399430",
    "family/torus-5x5": "8d7c52d413a29a0e0368c8421fb490bf631ea8f11b8ce37c1a53757b7fb04d66",
    "shortest-path/torus-5x5": "8464235e7845f966947e419e55eae1ee19a019bd05389a0c0a155a975afc4f3a",
    "family/torus-4x4": "14c5201469dc1c20a2458e305c4eaaf6097b5337b3cc456fe3d18267abe23b4e",
    "shortest-path/torus-4x4": "7911f32771e55ff35b4721cab4cfa1d9275279749066232c77eb8a106ce8b6f3",
    "family/torus-3x3x3": "4f1303175c7c65401a1da7c5a78032c696b86bc98e870f8c6c78c89349cac84a",
    "shortest-path/torus-3x3x3": "eaac4d4597044554ab6906d790e0a4290b0fe46e88ce126c652a118a500d20d5",
    "family/bcube-4-1": "02314de4cb4ed708c6fa388de3e07e8ce1fb5834ca4b549d3a032d9ec3f94fad",
    "family/hyperbcube-3": "f396cdae0d689a3229c21aa1f36d136e77c6a4f2b0c3671fc37ca07b8f6db76b",
    "family/chain-8": "47658b550a2ee7352e0ff75119ce4e394a7803df1bee0cfe8b380a961f361932",
    "shortest-path/chain-8": "47658b550a2ee7352e0ff75119ce4e394a7803df1bee0cfe8b380a961f361932",
    "family/zoo-Deltacom": "decfe6013dc010c5a9c26aaf69863d233b3f43de11089b90144030eeea2bd1af",
    "shortest-path/zoo-Deltacom": "decfe6013dc010c5a9c26aaf69863d233b3f43de11089b90144030eeea2bd1af",
    "family/zoo-Interoute": "ac2ba64803107909ece343c9f53739acf29e582da3b7213f945806dd2de83302",
    "shortest-path/zoo-Interoute": "ac2ba64803107909ece343c9f53739acf29e582da3b7213f945806dd2de83302",
    "reroute-0": "2502222cc26a067c944ee4a8a029c195d458089727241dbff4543904960cd177",
    "reroute-1": "079c7e425c092a88444641b40dc65af02aae84543b4b6d5bc17dcd25dfee5ea3",
    "reroute-2": "35e1164ffe96745043195618f35fe9d8117c3830506741d7480a30d5e870b3a4",
    "reroute-3": "8c81fed6af74fb816d30bbb296648d556ed4f4749ba2b6310b5291139f951d2b",
    "reroute-4": "8aa6c9b80b55c6e382dda1b2e278338207cd8f6b63d61d43c223b7d0e7f4c4df",
    "reroute-5": "8f1fcabe9ee1cc8994a9ad0aadb74cd520c0b231c101fb61efdb321ba2af746c",
    "reroute-6": "734f8459af8d26e606c9fabca17a2325b7fdffa5db75b09048c57e4a054a10a5",
    "reroute-7": "c187a6c90ea1f7346cef6b97bc2d0a55537dc0434b9df9472bbd8d81b004b829",
    "reroute-8": "7d6da7fe4808435873d6bd4b9b8961aa5d8340b329b53f1ce7ce9d9f75274188",
    "reroute-9": "a90ab4c57f256b98d649472dbd94c973efc7ad4fc917e30f04c7c740393675fd",
    "distvec/fat-tree-k4/0": "0a7e899726a7252c7b2de175698d698101163a614a95ddf45457827384617b68 8e13d29cdbc3efd403f8e811bacdb945b965c539197d8a1356caf4a397630ee3",
    "adaptive/fat-tree-k4/0": "0a7e899726a7252c7b2de175698d698101163a614a95ddf45457827384617b68 8e13d29cdbc3efd403f8e811bacdb945b965c539197d8a1356caf4a397630ee3",
    "distvec/fat-tree-k4/1": "0a7e899726a7252c7b2de175698d698101163a614a95ddf45457827384617b68 ba636de314f8a10f1cc6db9092cd31f9b408ed2a1c6a010499aefede6d167f7a",
    "adaptive/fat-tree-k4/1": "0a7e899726a7252c7b2de175698d698101163a614a95ddf45457827384617b68 ba636de314f8a10f1cc6db9092cd31f9b408ed2a1c6a010499aefede6d167f7a",
    "distvec/torus-4x4/0": "99af57d18114a77f955ff834f3acaa313b30f4ba28db2fff96dd967c49146731 cd88c3101806f0f1294589f3855611d80560e925198502cb207e9c63d29cbb8d",
    "adaptive/torus-4x4/0": "99af57d18114a77f955ff834f3acaa313b30f4ba28db2fff96dd967c49146731 cd88c3101806f0f1294589f3855611d80560e925198502cb207e9c63d29cbb8d",
    "distvec/torus-4x4/1": "99af57d18114a77f955ff834f3acaa313b30f4ba28db2fff96dd967c49146731 2383b14385298ef81cd2dd78250b153dc046176ad81b2391a626bcf0bed5e5c0",
    "adaptive/torus-4x4/1": "99af57d18114a77f955ff834f3acaa313b30f4ba28db2fff96dd967c49146731 2383b14385298ef81cd2dd78250b153dc046176ad81b2391a626bcf0bed5e5c0",
    "distvec/zoo-Deltacom/0": "3b0aefa9bc02f9eed961a0bfdf3f448def13316a631488a80f18c87ac9bf8271 58577214769dce34be105148ebc3a02edd417c23748aed23b2800ecc239024bb",
    "adaptive/zoo-Deltacom/0": "3b0aefa9bc02f9eed961a0bfdf3f448def13316a631488a80f18c87ac9bf8271 58577214769dce34be105148ebc3a02edd417c23748aed23b2800ecc239024bb",
    "distvec/zoo-Deltacom/1": "3b0aefa9bc02f9eed961a0bfdf3f448def13316a631488a80f18c87ac9bf8271 a2c40b4ff88391e977c3c250813ad82ae8085b6065885c120e121c001c4753d5",
    "adaptive/zoo-Deltacom/1": "3b0aefa9bc02f9eed961a0bfdf3f448def13316a631488a80f18c87ac9bf8271 a2c40b4ff88391e977c3c250813ad82ae8085b6065885c120e121c001c4753d5",
}


def _all_digests() -> dict[str, str]:
    return {**family_digests(), **reroute_digests(), **protocol_digests()}


def test_every_case_is_pinned():
    assert sorted(_all_digests()) == sorted(PINNED)


@pytest.mark.parametrize("name", list(FAMILIES))
def test_auto_picks_the_family_strategy(name):
    build, strategy = FAMILIES[name]
    topo = build()
    assert list(routes_for(topo).entries()) == list(strategy(topo).entries())


@pytest.mark.parametrize("group", ["family", "reroute", "protocol"])
def test_strategy_tables_are_pinned(group):
    actual = {"family": family_digests, "reroute": reroute_digests,
              "protocol": protocol_digests}[group]()
    assert actual == {key: PINNED[key] for key in actual}
