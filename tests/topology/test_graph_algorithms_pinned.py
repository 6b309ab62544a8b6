"""The graph algorithms around the multilevel partitioner, pinned bit
for bit.

Each digest is the SHA-256 of a JSON list, taken from the
networkx-based implementations that the ones on ``Topology``'s own
adjacency replaced:

- the greedy, spectral (RatioCut) and ncut partitions of every topology
  case of ``tests/partition/test_multilevel_pinned.py``, radix-weighted
  through :func:`~repro.partition.partition_topology`: one digest per
  method and topology over all its part counts and seeds, key order
  included;
- :func:`~repro.topology.diff.removable_switch_links` of the generator
  topologies and of every zoo WAN;
- :func:`~repro.campaign.runner.pick_failed_links` of every smoke
  campaign cell, for one and for two failures;
- each channel dependency graph's channels and dependencies, in order,
  next to its :func:`~repro.routing.find_cycle` verdict: Table III's
  rows, the generator topologies under their default strategy, zoo WANs
  under shortest-path routes, seeded ``reroute_avoiding`` tables and a
  clockwise ring without a dateline;
- the entries of those seeded ``reroute_avoiding`` tables, and every
  routing protocol's initial and two-failure repair outcome (routes and
  convergence report) on each smoke campaign topology.

A change to a neighbour order, a tie-break, a BFS or the CDG's walk
order moves a digest here.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.analysis.table3 import TABLE3_CASES
from repro.campaign.runner import build_cell_topology, pick_failed_links
from repro.campaign.spec import smoke_spec
from repro.partition import partition_topology
from repro.routing import (
    channel_dependency_graph,
    find_cycle,
    reroute_avoiding,
    routes_for,
    shortest_path_routes,
)
from repro.routing.protocols import protocol, registered_protocols
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
    zoo_catalog,
    zoo_entry,
)
from repro.topology.diff import link_key, rebuild, removable_switch_links
from tests.partition.test_multilevel_pinned import PARTS, SEEDS, _topologies
from tests.proptools import random_topology, seeded_cases
from tests.routing.test_deadlock import clockwise_routes, ring4

METHODS = ("greedy", "spectral", "ncut")


def digest(payload: list) -> str:
    text = json.dumps(payload, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _generators():
    yield fat_tree(4)
    yield fat_tree(8)
    yield torus2d(4, 4)
    yield torus2d(5, 5)
    yield torus3d(3, 3, 3)
    yield mesh2d(4, 4)
    yield mesh3d(3, 3, 3)
    yield dragonfly(4, 9, 2)
    yield chain(6)
    yield bcube(4, 1)
    yield hyper_bcube(3)


def partition_digests() -> dict[str, str]:
    return {
        f"{method}/{name}": digest([
            list(partition_topology(
                topology, parts, method=method, seed=seed
            ).assignment.items())
            for parts in PARTS
            for seed in SEEDS
        ])
        for method in METHODS
        for name, topology in _topologies()
    }


def removable_digests() -> dict[str, str]:
    out = {
        f"removable/{topo.name}": digest(removable_switch_links(topo))
        for topo in _generators()
    }
    out["removable/zoo"] = digest([
        [entry.name, removable_switch_links(build_zoo_topology(entry))]
        for entry in zoo_catalog()
    ])
    return out


def failed_link_digests() -> dict[str, str]:
    out = {}
    for cell in smoke_spec().expand():
        topo, _hosts = build_cell_topology(cell)
        out[f"failed/{cell.cell_id}"] = digest(
            [pick_failed_links(cell, topo, count) for count in (1, 2)]
        )
    return out


def _failure_set(topo, rng) -> set[int]:
    """One to three switch links whose joint removal keeps ``topo``
    connected (the draw of ``tests/core/test_failures.py``)."""
    dropped: set = set()
    for _ in range(int(rng.integers(1, 4))):
        candidates = removable_switch_links(rebuild(topo, drop_links=dropped))
        if not candidates:
            break
        dropped.add(candidates[int(rng.integers(0, len(candidates)))])
    return {l.index for l in topo.links if link_key(*l.endpoints) in dropped}


def _tables():
    for name, build, strategy, *_ in TABLE3_CASES:
        yield f"table3/{name}", strategy(build())
    for topo in _generators():
        yield f"default/{topo.name}", routes_for(topo)
    for name in ("Deltacom", "Interoute", "Uunet"):
        topo = build_zoo_topology(zoo_entry(name), hosts_per_switch=1)
        yield f"shortest-path/{name}", shortest_path_routes(topo)
    yield "shortest-path/torus-4x4", shortest_path_routes(torus2d(4, 4))
    small = [e for e in zoo_catalog() if e.num_links <= 40]
    for i, rng in seeded_cases(8, 37, "pinned-repair", "zoo"):
        entry = small[int(rng.integers(0, len(small)))]
        topo = build_zoo_topology(entry, hosts_per_switch=1)
        yield f"repair/zoo-{i}", reroute_avoiding(topo, _failure_set(topo, rng))
    for i, rng in seeded_cases(8, 37, "pinned-repair", "random"):
        topo = random_topology(rng, min_switches=3)
        yield f"repair/random-{i}", reroute_avoiding(topo, _failure_set(topo, rng))
    for dateline in (False, True):
        yield f"ring4/dateline={dateline}", clockwise_routes(
            ring4(), dateline=dateline
        )


def _channel(ch) -> list:
    return [ch.src, ch.dst, ch.vc]


def cdg_digests() -> dict[str, str]:
    out = {}
    for name, table in _tables():
        cdg = channel_dependency_graph(table)
        payload = [
            [_channel(ch) for ch in cdg],
            [[_channel(a), _channel(b)] for a, succ in cdg.items() for b in succ],
        ]
        cycle_free = find_cycle(table) is None
        out[f"cdg/{name}"] = f"{digest(payload)} cycle_free={cycle_free}"
    return out


def _entries(table) -> list:
    return [
        [sw, dst, in_vc, hop.port.node, hop.port.index, hop.vc]
        for sw, dst, in_vc, hop in table.entries()
    ]


def route_digests() -> dict[str, str]:
    out = {
        f"routes/{name}": digest(_entries(table))
        for name, table in _tables()
        if name.startswith("repair/")
    }
    first_cells = {}  # topology name -> its first cell and topology
    for cell in smoke_spec().expand():
        topo, _hosts = build_cell_topology(cell)
        first_cells.setdefault(topo.name, (cell, topo))
    for cell, topo in first_cells.values():
        failed = set(pick_failed_links(cell, topo, 2))
        for name in registered_protocols():
            proto = protocol(name, seed=cell.seed)
            initial = proto.initial_routes(topo)
            repaired = proto.repair_routes(topo, failed)
            out[f"protocol/{name}/{topo.name}"] = digest([
                _entries(initial.routes),
                initial.convergence.to_dict(),
                _entries(repaired.routes),
                repaired.convergence.to_dict(),
            ])
    return out


PINNED: dict[str, str] = {
    "greedy/fat-tree-4": "0a4e6a80eb9254d5fcb0a1876e4c3aa5640ba7b076284593bf2b3664d3387b63",
    "greedy/fat-tree-8": "1329145eefbcf146b747c37d5b702f591238cbc3be676e8b29afc75fc31126a0",
    "greedy/fat-tree-10": "c950a89df5104c3e44e8056f92a05670b166c21f15c2d58f52a83a8fc8b0de8f",
    "greedy/fat-tree-12": "3f0c71090e5dfe88c04fea45bb8dec0012f040314e22d367c2022fbdcc96690b",
    "greedy/torus-6x6": "1c67026c6635c848d548fd69df1ec866cb8ad209f7d224c51a5a0948f368d4a0",
    "greedy/torus-10x10": "c7456836f59d29f233175b52d6a6f38a7f0f32eac001b5e398ad04e6739cc260",
    "greedy/dragonfly-4-9-2": "ec7f10c37257420f38cc259dd12f13024328190f0d0c9872213b89077d036413",
    "greedy/mesh-5x5": "e79db93ecc9358c9acbc8807231051b83d5ff4f278e2736804a7a883cf7e2155",
    "greedy/chain-20": "b13db0cd1a23dfb0bb60b6cb08ab09d768c9cab7cb4ec71bea6213469c29f906",
    "greedy/zoo-Deltacom": "e7776993a0aefbe3020d8a144c9311d686563203efa22d84048b0f1a534759a3",
    "greedy/zoo-Interoute": "1b2dafa21f5489203f12cbdc4c0a0ca09fe3410fad67b3bac7992473b4aa66e0",
    "spectral/fat-tree-4": "4ccf0b5ef5ca6295cd2e94145f0e2b6179d83893effefbe743aa369469bb8775",
    "spectral/fat-tree-8": "31e1c6ee45b77e47359be455a3fff5af43a8341c7b1ce47fefad046ae4ce56b3",
    "spectral/fat-tree-10": "7a1c16028ce8b74299a7f2cb4619fad84ca77a776a5d1882bf341bcbd685b316",
    "spectral/fat-tree-12": "cfcc2f328bcae1e8c607ffc140462e41737deb153abaaaa02e7b76a29ed29457",
    "spectral/torus-6x6": "f1b170c3d38cf7a76c3eca45bc5d1571fdae644ce3b8d3baa4b90e8bd916a11e",
    "spectral/torus-10x10": "747db1d4d9e4ff55227f40b73575076bff17762b510aac36d525d826498f964d",
    "spectral/dragonfly-4-9-2": "441ae89c96a9567ea1eae2e2d9aa3421de1c6c6f697f561eb51f183fc32288fa",
    "spectral/mesh-5x5": "f6718f0e906007fba0d0166ddb33bf01969f664893a67fc4dc240360fe46b24b",
    "spectral/chain-20": "b31814bdb3608c1abd955d99a98eb5d80e80a33e1d3164c0246cf766c5c30391",
    "spectral/zoo-Deltacom": "681e844cad443225ff6b84105714d19c90a012595f93ea81909f7d77aabb08c3",
    "spectral/zoo-Interoute": "c7539ddb482c9bcab8d9c9ef53d9f3eee05e85794ce990e5fc0a8de9b78265bf",
    "ncut/fat-tree-4": "cf2937abe4d0e5ed3dc5cbe5c787a18b1606ad46df2c525d89d27407594090f2",
    "ncut/fat-tree-8": "2a8716e97f5df1f037b73366cf77932496043e6e1b19f0c372f5effe9e51b7e3",
    "ncut/fat-tree-10": "ccb6e6c9594fe83ee92c5aac341826e15bd4a7352ddce34c952fcea2fe67c84b",
    "ncut/fat-tree-12": "b1aed5b28b5009847da31dfeab5b413d2106ba3c6d826661bb0f0d4dc6b46061",
    "ncut/torus-6x6": "f1b170c3d38cf7a76c3eca45bc5d1571fdae644ce3b8d3baa4b90e8bd916a11e",
    "ncut/torus-10x10": "747db1d4d9e4ff55227f40b73575076bff17762b510aac36d525d826498f964d",
    "ncut/dragonfly-4-9-2": "7631b763710efdccd0204155fb5905ae0f62b4ce57d8d09a324a6679f104b555",
    "ncut/mesh-5x5": "c70809238263b2b1c1f3bddab65b7f5420c13e8044fcff0eefac23342e06b665",
    "ncut/chain-20": "025622d3749cd10e8b783d451627639cc4551c99feb92b042dcb4fd4447fd7ab",
    "ncut/zoo-Deltacom": "a04ea48c3521297140248c58ec49e117ce46d528326c868ec7eed36ef457b725",
    "ncut/zoo-Interoute": "12e30decd9166eb245efd8e1fcac7853b3c064b91ad6d9c5185e5051b8acdf18",
    "removable/fat-tree-k4": "9cc41131ed01ef80101e7ef3dd5ac9ef1354dd2689660d992ed778eadef7812a",
    "removable/fat-tree-k8": "7cec0feb862317c24d1664f9983902bfbd754825307b69d3afb4f527e4207752",
    "removable/torus2d-4x4": "9fce1f6f51e395bea391036e9561533e849746d138cd38cce91e786326e8bf74",
    "removable/torus2d-5x5": "fa788cd3cb0e8426346fa550e8d0fc625af442868b355d68061b42901297de59",
    "removable/torus3d-3x3x3": "c1e48d8cb63e9ea0d149438a918934aa753c7e67917b8c56ce64c03ef7be56c1",
    "removable/mesh2d-4x4": "2e3c59cbc572320400c5cb00fede076624acd16ac13b8e75abe24b2d5f835c25",
    "removable/mesh3d-3x3x3": "a194de33e98d497d7b86fd1d38d6f7793338e61fb1e81552e61e980faf074b36",
    "removable/dragonfly-a4g9h2": "2a64e9af2ec948aa97d5cf4fb315f85254ccf9c9595bfa6089c39ebecfcc2818",
    "removable/chain-6": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "removable/bcube-n4k1": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "removable/hyperbcube-n3": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "removable/zoo": "1d30d2188ac648375a022ec69dcef6b5d2b7568ab8f577f70906742739087d43",
    "failed/zoo:Wan039/precomputed/ideal/single-link": "96c5ee511404a390e78ad5578ed8cbe93fe7d5aa7f5f0abadac5d513a97c7b16",
    "failed/zoo:Wan039/precomputed/lossy/single-link": "3c454165640ea3cf36ffcfb1fcba7746225101724e461ed14d5c751dca926f25",
    "failed/zoo:Wan039/distvec/ideal/single-link": "e57ca707c0f16e2522ce1dfe8f00970ec20a86f0cd1dbb28aa5e6627b9fa2567",
    "failed/zoo:Wan039/distvec/lossy/single-link": "a4e47e24e4d9ac3d17ffd75a80bf200f45cce816f64efa04e6134fafe0f7542e",
    "failed/zoo:Wan095/precomputed/ideal/single-link": "f32cc1be5e4b0ea1345a296cba0508e82edc0ce8bf79a1b138f817b30c6a966d",
    "failed/zoo:Wan095/precomputed/lossy/single-link": "a4e47e24e4d9ac3d17ffd75a80bf200f45cce816f64efa04e6134fafe0f7542e",
    "failed/zoo:Wan095/distvec/ideal/single-link": "be195ae3cd3bce25b77741442594e2a1551cb7f99dca046fa9acda24137f46a6",
    "failed/zoo:Wan095/distvec/lossy/single-link": "f32cc1be5e4b0ea1345a296cba0508e82edc0ce8bf79a1b138f817b30c6a966d",
    "failed/zoo:Wan167/precomputed/ideal/single-link": "032dfd468226493ded23f2e56b175a048d12bc141db8b12c31799c1ebc95c0d6",
    "failed/zoo:Wan167/precomputed/lossy/single-link": "9744987545315d19bed5f5c22ca9c88dbcfe33a68f2f271d0fbf8f2992cb1049",
    "failed/zoo:Wan167/distvec/ideal/single-link": "032dfd468226493ded23f2e56b175a048d12bc141db8b12c31799c1ebc95c0d6",
    "failed/zoo:Wan167/distvec/lossy/single-link": "d7f94b6c257fe8dfdfd8bb82904e873c42ac9d53a87c17839b61d69a5fe27b45",
    "failed/zoo:Wan203/precomputed/ideal/single-link": "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
    "failed/zoo:Wan203/precomputed/lossy/single-link": "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
    "failed/zoo:Wan203/distvec/ideal/single-link": "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
    "failed/zoo:Wan203/distvec/lossy/single-link": "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726",
    "failed/zoo:UsCarrier/precomputed/ideal/single-link": "d1212321f501143916d18e95a41d947fda8a74c99f874508d9b5d768da4f29e2",
    "failed/zoo:UsCarrier/precomputed/lossy/single-link": "fe580061f1d4af802da2208952c8305020c6035112376b4f9ea32ff5c6d4c3cc",
    "failed/zoo:UsCarrier/distvec/ideal/single-link": "7f9bea6e030c8ba97ca278a49d1bf69ae858efa139535ca6ae89758843642b66",
    "failed/zoo:UsCarrier/distvec/lossy/single-link": "3e72bed76f2a965aab1b1ba828e468ffde58274e877385f9b4223326af648fbf",
    "failed/zoo:Uunet/precomputed/ideal/single-link": "68c1ce342b3dedc20d2ac7b9fa6956e3d4ef39677f4e2ffda5635e1742155b48",
    "failed/zoo:Uunet/precomputed/lossy/single-link": "1f386e6f4f00e5a1b2bba2e25550a3853b070ce2c216d8a70f6e4757dc7ecc08",
    "failed/zoo:Uunet/distvec/ideal/single-link": "4bfe17bb752624742b5ad9b70b5ddb925cb60b8040102f19108e7ca2c7611465",
    "failed/zoo:Uunet/distvec/lossy/single-link": "b72de2f5bd8debd4abe6eeb00d310cfaa25989d1d402003d9b50097e1f4a5ce1",
    "cdg/table3/Fat-Tree k=4": "df06d7d9d93d4ff85c2a23ad865ba9c8b7013c3da218f8c2b1e20d1fbb525a9b cycle_free=True",
    "cdg/table3/Dragonfly(4,9,2)": "f1d3fb74755db73ada29db34898f926f8f27661ad5ed060f9df30c70d02ea2e1 cycle_free=True",
    "cdg/table3/2D-Mesh 4x4": "eb6cb500989d2ef0b2b82f412d816f453d843043c66d02b6d6b37916f17c0488 cycle_free=True",
    "cdg/table3/3D-Mesh 3x3x3": "fd174e27ce86e21849d4a80deed9ab87f2502c13c09cfc8b8026f919a964ba28 cycle_free=True",
    "cdg/table3/2D-Torus 5x5": "dbc9e43cf0e0b59f6487fbaa292b17830e741f4c9694b983c3b6f6ac2622db4f cycle_free=True",
    "cdg/table3/3D-Torus 4x4x4": "aa8a1b0e1218f121dbee28c88b9e26dd529b23800a52687beba93006ec0f39dc cycle_free=True",
    "cdg/default/fat-tree-k4": "df06d7d9d93d4ff85c2a23ad865ba9c8b7013c3da218f8c2b1e20d1fbb525a9b cycle_free=True",
    "cdg/default/fat-tree-k8": "4cc75771546c91f3965ef530340300f4d4db04aa7279ec9085783fa043b6012a cycle_free=True",
    "cdg/default/torus2d-4x4": "03632f9f1194087ca7df0c041d14921cbf2a820a547d9d28f8becc3ec2096ca0 cycle_free=True",
    "cdg/default/torus2d-5x5": "dbc9e43cf0e0b59f6487fbaa292b17830e741f4c9694b983c3b6f6ac2622db4f cycle_free=True",
    "cdg/default/torus3d-3x3x3": "734f91d6b3f052bbce2e87d1b931298742e5804d2416b18df46995a50f054d8a cycle_free=True",
    "cdg/default/mesh2d-4x4": "eb6cb500989d2ef0b2b82f412d816f453d843043c66d02b6d6b37916f17c0488 cycle_free=True",
    "cdg/default/mesh3d-3x3x3": "fd174e27ce86e21849d4a80deed9ab87f2502c13c09cfc8b8026f919a964ba28 cycle_free=True",
    "cdg/default/dragonfly-a4g9h2": "f1d3fb74755db73ada29db34898f926f8f27661ad5ed060f9df30c70d02ea2e1 cycle_free=True",
    "cdg/default/chain-6": "f4f4b725d3fea0beee761047f0d8e165ffd9a4050843e881253c2597ebde273b cycle_free=True",
    "cdg/default/bcube-n4k1": "331492bb0a43378ed1cd916a45578467b047d75bfb4870b000de63a23dd621de cycle_free=True",
    "cdg/default/hyperbcube-n3": "80a20170dc8e24d0d914735f0c0b437c27ff6b6b66593d234998e4fe075e68cf cycle_free=True",
    "cdg/shortest-path/Deltacom": "ca9650be91eff75a043c016eb7626f2137feb42e88c27c04ca492d994bdefac7 cycle_free=False",
    "cdg/shortest-path/Interoute": "9cae7b1ee18083937cae5ee8eaf8a05cb45e15ceb97e6976772f1d59c2406851 cycle_free=False",
    "cdg/shortest-path/Uunet": "a46dae1d21cf8af24da396478b28e263bd7463bdcb30301ec29e0df0d05ed107 cycle_free=False",
    "cdg/shortest-path/torus-4x4": "408b676c12273d508c3eebf522dccc3d8d439d5761c9bcc84b29a83fd40bb70d cycle_free=True",
    "cdg/repair/zoo-0": "8e331c4eb480dd465011fb1f1ca90e908848855470bd7f0717af90cc8466c381 cycle_free=True",
    "cdg/repair/zoo-1": "40ee0a04a534db0a24ee9dc53e8f3cc24abbef4df72d14ad995abe8c5018f008 cycle_free=True",
    "cdg/repair/zoo-2": "ac4b95c838b96d92f75bf149c3782f51f133e536713c13dddfa3dc9272da111e cycle_free=True",
    "cdg/repair/zoo-3": "cf2d82083c0695d8f8d787df5c2af73b227679c759aacc80a1e0cafcc57c8609 cycle_free=True",
    "cdg/repair/zoo-4": "85a8a1618ba72934ffd562cee67ba4295a76b282af1d5386c214bce7a8a6f656 cycle_free=True",
    "cdg/repair/zoo-5": "7a7988ee11d704fc6f654101cc1d797fd08b822e6425d5728aa918e00454bc6d cycle_free=True",
    "cdg/repair/zoo-6": "7c285c76f9d49bbd12a69bad3a8b1dfab1e05e815a5fc41ab1e2a712500fe19a cycle_free=True",
    "cdg/repair/zoo-7": "dddffb35144e9ad772c258f01753834526a5e97c40734a357012c82aa6369264 cycle_free=True",
    "cdg/repair/random-0": "d713e3248eee4c4f327bf5d68f7b0301cda0a1a0027ad2336e8c94b467217375 cycle_free=True",
    "cdg/repair/random-1": "452d402f5b2eb6216c6df57be2027e9669334d1dc7cec69af487797736c161fc cycle_free=True",
    "cdg/repair/random-2": "c05f4e1005bf538da670dd64a24ac44ba2abf07d06e2f8bbea22700ffaa48226 cycle_free=True",
    "cdg/repair/random-3": "da4b5dbddcab955127c5080b15889b2f2b589d2c3e238e226e8c60e6db3eae8c cycle_free=True",
    "cdg/repair/random-4": "f79718fecf1bdfd90dd6e09dde001d92e026411c2010957328b2f50f901d0ac9 cycle_free=True",
    "cdg/repair/random-5": "4cf7efbcc5218c235a1827fbc2bc63a586afae5cfd1da95e13564dff70e319fe cycle_free=True",
    "cdg/repair/random-6": "75bebdd5db173071eafacda5e09cee7a570c2967b7be1e3d937bec79f729400a cycle_free=True",
    "cdg/repair/random-7": "643d5437104296e21d906ecb15b2c96ad278f20cfc4af53b12bb6069bd853726 cycle_free=True",
    "cdg/ring4/dateline=False": "40171fe21e94327fe3100e28f94c32a1536dbc867ce76bf6ec4a5e1adb859ddf cycle_free=False",
    "cdg/ring4/dateline=True": "60fce18b5ac0f1b6a2d00d5f8793831b83178721d09c8d7e6085e0540086feec cycle_free=True",
    "routes/repair/zoo-0": "6f89cf34b07c46deecec34c35eb0d826760a1960c00f6b003f1e5c6612b7168f",
    "routes/repair/zoo-1": "9c8464977ea085889cc85ab87bacc60b15afa05d98520a6739a5aa245cdc36a6",
    "routes/repair/zoo-2": "43065f2207ed02e7a300f65be9d41d18860c1e58fad1f8909bb1c84016cb1422",
    "routes/repair/zoo-3": "71aba85b2787e814567a5ffef23b86af27a790bc2d05db727727a390538ff6f1",
    "routes/repair/zoo-4": "0f78123ef860e4d8d7b116a15e69e1a3ad6cee08ce1f3e0c983e88d805ab5352",
    "routes/repair/zoo-5": "eab1968317d0b1e8eb6b7ee7da6702a0bfedc5193a89c0df4b756d59e0f66358",
    "routes/repair/zoo-6": "76a5190861250333d1b78465f16a243aaa591be7b2518f6c527857001b093325",
    "routes/repair/zoo-7": "5ab149124b4e4ff9773be0864f9fe5e8ce6a6aa5b41824333961e6ba8bebf160",
    "routes/repair/random-0": "cc9828b0da62775183c01d0aecae73f3b57c61dc29d01ebaed953d64ab3984e0",
    "routes/repair/random-1": "23467b336aa4dd047d95c37ecf7f68930ec16e7286a06818fa77a8531877e0e0",
    "routes/repair/random-2": "db523bbd29497f4ca8f8d4b77240992b533947a834d48ed08988e2a26a894663",
    "routes/repair/random-3": "0f16d1861f7c485790dd85102b8b05808022b625ff2338ee8fe45971a8d1f3d2",
    "routes/repair/random-4": "42ea6692c725c50a86487a902fd295e4eb92b28d77f3de41451fc20614a75609",
    "routes/repair/random-5": "cc2777f3c3f24226882be23c1f52c561fea2a7dfc706cf30d6eda6cbe0c89db6",
    "routes/repair/random-6": "3409cd26350bfe0d081c490aafceb4650210377a9c353286302e52276998eb7f",
    "routes/repair/random-7": "4f53cda18c2baa0c0354bb5f9a3ecbe5ed12ab4d8e11ba873c2f11161202b945",
    "protocol/adaptive/zoo-Wan039": "70d52f19da0946608add3191e4ff4550a21eef2505a1b735015e81642c6b7c5d",
    "protocol/distvec/zoo-Wan039": "5a0ccb11d655c1a513321266d54e644dc2b7e638106c8f0ca2843f9ab530820b",
    "protocol/precomputed/zoo-Wan039": "70d52f19da0946608add3191e4ff4550a21eef2505a1b735015e81642c6b7c5d",
    "protocol/adaptive/zoo-Wan095": "0c3aa5bb1dd0d2b623aa0c0d76b75882a159b050900352ea675c3949d9d614b3",
    "protocol/distvec/zoo-Wan095": "ca6474fb6f63869fef11a1f393575472fb2a33d8bfb9c66bd24b8db1871e2dba",
    "protocol/precomputed/zoo-Wan095": "0c3aa5bb1dd0d2b623aa0c0d76b75882a159b050900352ea675c3949d9d614b3",
    "protocol/adaptive/zoo-Wan167": "18ed82b4b10ce5fc1a28cc1b99a6196300c3be1715b902938045c11054e00a38",
    "protocol/distvec/zoo-Wan167": "8b30f3149649a6c5ab6a86c729bc43855821bec2918cd7d074dcbaf1aa732d10",
    "protocol/precomputed/zoo-Wan167": "b25ff15c3d7b3eeb3ad373ae16e5a880b7ab11ba0e5b6406415bb7832eabca6b",
    "protocol/adaptive/zoo-Wan203": "a71cf7dcfd0a7f186cd0246bd03f026170e2159713912502c67026916db07fe0",
    "protocol/distvec/zoo-Wan203": "7db0df484049994e907e5161cd4d6ede207ea1c809fff2ea373a025db16cd5f5",
    "protocol/precomputed/zoo-Wan203": "28515490aff2b9885d22cf88b0f0bdf6fe1a9cc95d1ab1b6f077fe0c53d970a2",
    "protocol/adaptive/zoo-UsCarrier": "dd27ca936e2dace34b180efc31dfa67cc05bfb78f10548edb4501ddf5c2cd4e4",
    "protocol/distvec/zoo-UsCarrier": "279e6226d13659d935bc80448517cf1c76bd9f59d156c0e7bb78d65f23b9c950",
    "protocol/precomputed/zoo-UsCarrier": "69f2f2dad8ba08dd4d77477083f25210de5f67ae32e7a8d997e0cc6347dba070",
    "protocol/adaptive/zoo-Uunet": "f1cf7fbeae45d7a8c062448465e9314ce3ae0b2eb2007be628fd85a62fab98b9",
    "protocol/distvec/zoo-Uunet": "73332b9e55cb3127f2b017cf39064c72d681f59b5f43b51adb4c7b5bc95bc4a1",
    "protocol/precomputed/zoo-Uunet": "d565fd7265f7cd129548fde9ed49acb5f7c37c2b61a11db7b1594d24631143bf",
}


@pytest.mark.parametrize(
    "compute",
    [
        partition_digests,
        removable_digests,
        failed_link_digests,
        cdg_digests,
        route_digests,
    ],
    ids=["partitions", "removable", "failed-links", "cdg", "routes"],
)
def test_graph_algorithms_match_the_pinned_digests(compute):
    got = compute()
    pinned = {k: v for k, v in PINNED.items() if k in got}
    assert len(pinned) == len(got)
    differing = sorted(k for k in got if got[k] != pinned[k])
    assert not differing, f"drifted on {differing[:10]}"


def test_the_pins_cover_both_verdicts_and_every_smoke_cell():
    verdicts = [v.rsplit("=", 1)[1] for k, v in PINNED.items() if k.startswith("cdg/")]
    assert verdicts.count("False") >= 1 and verdicts.count("True") > 20
    cells = [k for k in PINNED if k.startswith("failed/")]
    assert len(cells) == len(smoke_spec().expand())
