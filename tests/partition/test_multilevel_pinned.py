"""The multilevel partitioner's output, pinned bit for bit.

Each case's digest is the SHA-256 of the ordered
``list(assignment.items())`` — every part index *and* the key order —
taken from the networkx-based implementation that the dict-based one
replaced. Any change to a tie-break (smallest name wins), to the
gain of a node with a self-loop, or to the neighbour order the bisection
runs on (the one it derives from the caller's adjacency) moves a digest
here.

Covers the topology families the controller deploys (through
:func:`~repro.partition.partition_topology`, radix-weighted) and seeded
random weighted graphs with self-loops, isolated nodes and several
components (through :func:`~repro.partition.multilevel_partition`).
"""

from __future__ import annotations

import hashlib
import json
import random

import pytest

from repro.partition import multilevel_partition, partition_topology
from repro.topology.graph import bfs_parents
from repro.topology import (
    build_zoo_topology,
    chain,
    dragonfly,
    fat_tree,
    mesh2d,
    torus2d,
    zoo_entry,
)
from tests.partition.graphs import Graph

SEEDS = (0, 3)
PARTS = range(2, 9)


def _topologies():
    yield "fat-tree-4", fat_tree(4)
    yield "fat-tree-8", fat_tree(8)
    yield "fat-tree-10", fat_tree(10)
    yield "fat-tree-12", fat_tree(12)
    yield "torus-6x6", torus2d(6, 6)
    yield "torus-10x10", torus2d(10, 10)
    yield "dragonfly-4-9-2", dragonfly(4, 9, 2)
    yield "mesh-5x5", mesh2d(5, 5)
    yield "chain-20", chain(20)
    for name in ("Deltacom", "Interoute"):
        yield f"zoo-{name}", build_zoo_topology(zoo_entry(name), hosts_per_switch=1)


def random_graph(case: int) -> tuple[Graph, int, int]:
    """A seeded weighted graph with its part count and partition seed.

    Node names are not in insertion order when sorted, some nodes and
    edges carry no ``weight`` (the partitioner's default is 1), about
    one node in eight has a self-loop, and the graph has one to three
    components plus, sometimes, an isolated node.
    """
    rnd = random.Random(case)
    n = rnd.randint(6, 90)
    names = [f"{rnd.choice('abxyz')}{i}" for i in range(n)]
    rnd.shuffle(names)
    g = Graph()
    for u in names:
        if rnd.random() < 0.8:
            g.add_node(u, weight=rnd.randint(1, 6))
        else:
            g.add_node(u)
    components = rnd.randint(1, 3)
    members = [names[i::components] for i in range(components)]
    if n > 8 and rnd.random() < 0.3:
        members[-1] = members[-1][:-1]  # leave one node isolated
    edges = []
    for group in members:
        for i in range(1, len(group)):
            edges.append((group[i], group[rnd.randrange(i)]))
        for _ in range(rnd.randint(0, 2 * len(group))):
            edges.append((rnd.choice(group), rnd.choice(group)))
    for u in names:
        if rnd.random() < 0.125:
            edges.append((u, u))
    rnd.shuffle(edges)
    for u, v in edges:
        if rnd.random() < 0.85:
            g.add_edge(u, v, weight=rnd.randint(1, 4))
        else:
            g.add_edge(u, v)
    parts = rnd.randint(2, min(6, max(2, n // 4)))
    return g, parts, rnd.randint(0, 9)


RANDOM_CASES = range(60)


def digest(assignment: dict[str, int]) -> str:
    payload = json.dumps(list(assignment.items()), separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


def topology_digests() -> dict[str, str]:
    return {
        f"{name}/{parts}/s{seed}": digest(
            partition_topology(topology, parts, seed=seed).assignment
        )
        for name, topology in _topologies()
        for parts in PARTS
        for seed in SEEDS
    }


def random_digests() -> dict[str, str]:
    out = {}
    for case in RANDOM_CASES:
        g, parts, seed = random_graph(case)
        out[f"random-{case}"] = digest(
            multilevel_partition(*g.args, parts, seed=seed).assignment
        )
    return out


PINNED: dict[str, str] = {
    "fat-tree-4/2/s0": "37a20e5c5817fc548c30fc7e313615498da3b17c0595fb8641633882eb757e7a",
    "fat-tree-4/2/s3": "274f31943d5a312cdf6862835f74d8eda80037b9e1f0dedc9243401d7958a106",
    "fat-tree-4/3/s0": "976ade7f5c4b63f27a0a80e6a1d5fb56419fd1dcb1988b6ad17e02d06a04296d",
    "fat-tree-4/3/s3": "38c8aae4b26fc8e630ada4e611beae8de9f9d5873000b700097cdc1e841c90c3",
    "fat-tree-4/4/s0": "210a2bf389e82e76a4ad8651bd336da73d9b4b05e6d531102d74a7cbb32ed470",
    "fat-tree-4/4/s3": "8154a077896a40102334266273bf288945d95225e643977395d5515665c4c3d6",
    "fat-tree-4/5/s0": "a8fd080e14a4ae3a434d7e0a08ae52565102975a39e59a1157136443319a78c8",
    "fat-tree-4/5/s3": "bab8a589188ea30f146350050fdb432a9de2f06802a6935a13df3fd0c8bcb552",
    "fat-tree-4/6/s0": "e45a5687070375b892e0786d138f12800d5d75c100f46d5aa559d229db58a661",
    "fat-tree-4/6/s3": "507b8f7e6b3661f31cebae8c526fea816f3d001b546131970d5488f257a6baf5",
    "fat-tree-4/7/s0": "923a061b5e114f788c01f3ec1e5473f9e7607efc831e0a985cbc3fb3176faa6d",
    "fat-tree-4/7/s3": "15886eb8c824d46051f8fcb7da2d46671be4c6d49d198799ecb3f851cb6b5350",
    "fat-tree-4/8/s0": "3c76312f63536ca5f1d53c3f1709f208a750542debf552af1dfa61bd0b402f49",
    "fat-tree-4/8/s3": "fe7b2fd72c51aeba448efc425066d14cb46d4847f8e1c8d90ba8a6b0fd4fb734",
    "fat-tree-8/2/s0": "d6d990ea6741cf5cd5943cb6cc3e5e228e839c1a24f56e994fbc625f512b79f5",
    "fat-tree-8/2/s3": "55402584939defc6503026e1129dde4938ed22291c2108801d73025433353c56",
    "fat-tree-8/3/s0": "254933e0d16297465dfb10a51edc0303d1bc2417bd5f1ebfb4c8aa931f2ea3f4",
    "fat-tree-8/3/s3": "0a729a81ba5b1c241adc00064cec68415a18592345f74b219593bcbdc3107cb3",
    "fat-tree-8/4/s0": "405d9f35ca8cd7a35e291e16f5e638e0e948dc7381f523e7cc0509603baa5031",
    "fat-tree-8/4/s3": "ee23793932ce2632a5e9692566d5d5859f92244fef3d33b512096a2d0616c334",
    "fat-tree-8/5/s0": "8a4995d8db5b9f4cbb933ff276832d2061ab0a5b3c6d0d8bc870ea4e2daedbc2",
    "fat-tree-8/5/s3": "a744d2b353bb1a14b2353351c902f51a0c8287d133aad7d7d83b18ad6c589e0e",
    "fat-tree-8/6/s0": "e394edd7debbc39e1ebb08894e304ba55affee575513bd0be51944308e7151a9",
    "fat-tree-8/6/s3": "a9ae209aaa32801771ea34cb9796ced2e47dde0fde4ab2ad165829fe5bf7bd3d",
    "fat-tree-8/7/s0": "318ef2dfd9b02a11e5e8983fd6b43550c44929a96d617253d4d41fcce6389d01",
    "fat-tree-8/7/s3": "05fa9f414c72310a63ebab250ec59821137fd855dde67351fcf4b845f34c0e96",
    "fat-tree-8/8/s0": "f5732d72e9d0d98bee2b8145061e4825d306faf34b8de43ed82de1c62f16d873",
    "fat-tree-8/8/s3": "b62a5583220e95b521914abea4f1d84a4f5b361c3c8c3f4f4b7fa02c1506b72f",
    "fat-tree-10/2/s0": "652a2c2eefe2c33d434f8042b30a3eaeaa54df7474ae82cbfbad1c2e70c86970",
    "fat-tree-10/2/s3": "169477d345c23017713d40fc0a7a6b4dd8fb0797451f85434bd28e96c66871b0",
    "fat-tree-10/3/s0": "a2a06bac249da94ef83fa0d3acb1946af0c8cd31e86d8c3ec7fb99687f53a752",
    "fat-tree-10/3/s3": "77ea763df471bdf4a7f905e549363ba7955a56d516f302432ab8f245204760e0",
    "fat-tree-10/4/s0": "04f2bf47dc569a26f0bb75dfcf2d2b4a4981b8aaa991ed3d39d8a48a467cd448",
    "fat-tree-10/4/s3": "e4875669fe1294eef274d3d5b8b471134bd64033561528a0eb535afd17f48bc8",
    "fat-tree-10/5/s0": "ad87e22a09b72e67b4452b93074ee622e33ffd234cc2c6b75f3718a27ec015ab",
    "fat-tree-10/5/s3": "7d5cda3dfdb5cc0c36d05fabcde575a5d2c449b5f847b19db263154b36cd2d03",
    "fat-tree-10/6/s0": "348bb49d55bd021940e454a4ff2d1afdc780db3da046aa97159212127cd80dd2",
    "fat-tree-10/6/s3": "cef4cc5300ffbb7c3f1a2fb89c59b484b9eb0af8f568166c2a0368d16caa068c",
    "fat-tree-10/7/s0": "a078bb57ded9839fd41e84a1ceaf97646cc03b936cd6cee42f6856c18f96195b",
    "fat-tree-10/7/s3": "49adfb18fc5721e6992aa98c60eba7075eca57bcafa4dec49d3c2c0911f5784f",
    "fat-tree-10/8/s0": "f169c2b2189fc6e08cb92e1b4e8891c255278e1baa80fa943f2192cfa1d0b62f",
    "fat-tree-10/8/s3": "0511924ddd4228d8bc0ca73bec90ad8d6bd301ef45f04252c00176009c56dbdf",
    "fat-tree-12/2/s0": "6023a1a30a2bc092987572892ec7c747872cfedf8d0a44b05ec2b39ba0cb35b3",
    "fat-tree-12/2/s3": "4951aad66635a14f017b7ffacf745579f2f93da97cf821dfd2600b5e8a7c8783",
    "fat-tree-12/3/s0": "9a67dcb2d9b5b0855d6a51f65a4ddec91f191b26d929ae4372fc571b30967de3",
    "fat-tree-12/3/s3": "1fd45baa51fdf08bb84f15a09ba65f77f21b8bd826cf4c75c6eb012aaae5c7bf",
    "fat-tree-12/4/s0": "c5c81de787a74fe250c91e07799710a4b6a83430d3c7d527e4e11b7861b0493b",
    "fat-tree-12/4/s3": "708d90fbfebcdd160a1aa688a110cc4d99370a66df66e277fead43c6010e2af5",
    "fat-tree-12/5/s0": "f0fd2e59d8d032f159987fa44b094784b444df8d7a1856c4b63f403fe303ff24",
    "fat-tree-12/5/s3": "3d3b004df781d7cb0f794ff74de23b9c717a51003b7039ad416de6f265661868",
    "fat-tree-12/6/s0": "d58ec265d8049e288628930a9faba53c1c2536b485f9e0d38606a4879f8b69fc",
    "fat-tree-12/6/s3": "43e0b2e51c6276ffd22efe3129f181ac0dd3026462d25bdbc789c881eac4075f",
    "fat-tree-12/7/s0": "750989c7e1f0dbe4296c321f30e70ce3c661ea5666ec9acb4ba7500350193df8",
    "fat-tree-12/7/s3": "48f230e969559ffeabb8def8d520a25c84aec11a229d4f4c6f641ec3b5c53863",
    "fat-tree-12/8/s0": "86fd2db0ffec3f0ee647c46c88dab2a8b7eff5611a5ddc118c2d938891b0e40a",
    "fat-tree-12/8/s3": "6a12310a77f042f309915bc03bbbfec9b86d08a6730009d4d1317f4140b3af53",
    "torus-6x6/2/s0": "bd713dd949272a09fefa17b0e2c0a9072a095502afc8a595a47878760ca0d92d",
    "torus-6x6/2/s3": "ff8c26779c464f0de0e8bfeac6083cbe747306f8826133ab8d5b3f76cf16900d",
    "torus-6x6/3/s0": "880ed096f0d2fa62339b306d52ce224eaa5892b067e77567bdd678be60b029c5",
    "torus-6x6/3/s3": "84f9eab01cfa70de3896a0562eb6b4f94a9455a0c29415abab98ef0593841875",
    "torus-6x6/4/s0": "d94684d3caffdc98d21488c460edff85efb5779d66217c6cb0b198d30b53a2e1",
    "torus-6x6/4/s3": "ed3a5ef3b555eaa7da77f89c2e7d2236ce38288f1b17c6bc065c48767cb5e304",
    "torus-6x6/5/s0": "161fbdf2d918e23e20361d6323f26b928ea46f480110a081ac85001c7882cb7d",
    "torus-6x6/5/s3": "63ed5f7e7521aa7f9759cb308bfe8e631fdaf4a7f8167563db40084cfd94028a",
    "torus-6x6/6/s0": "cb2a3607299a52af17852506e768c332df4cd410446222eff239ef69acbd853a",
    "torus-6x6/6/s3": "7a7cdd907aac97211841e6d346374a3e0a74fe534efbd3e3ea0d0a81e9ed898d",
    "torus-6x6/7/s0": "af2bc24b17d2d90c2e19be484f53799c619d42deeaf49058da7f778954cd9741",
    "torus-6x6/7/s3": "829c281adfb61f6b58c52392a292f19f92e8b232719ce23383fd4a7a151913cd",
    "torus-6x6/8/s0": "b934326d46bd4988b687336bdadcbc0b0a755e5eaf50848cfa06b13d7917950d",
    "torus-6x6/8/s3": "54bc190417786be4fe80445f154794833810248f6389ede23e8417398ac1658a",
    "torus-10x10/2/s0": "c1810c06c5bc2c84aac93d67c1e658437fe9a4cac4871f49af8078309fb41673",
    "torus-10x10/2/s3": "59347bc78aa19aba4ef98ed6ff8f527894126caf5f64f2c76fc484de820dcb5b",
    "torus-10x10/3/s0": "6613110fecefb22375b25b6219421eaeb3cc5b0d8d0f7270e0c212004f1db95d",
    "torus-10x10/3/s3": "7bf7e1fc18856637bf85c84f669083760b1eb1407b2f1d63f511e7b3d41fedd8",
    "torus-10x10/4/s0": "3bb53b34df629fba9804b704056ad13d11422cd96e1ab22c1caaf6c6a6569bd5",
    "torus-10x10/4/s3": "888dec9d9b8a1587519ff94137ad14f4449f989770a4db5b3598026f9ae9cc6b",
    "torus-10x10/5/s0": "97d0a1d0c2cec4eaa9ac7c440529528f094f4cf2b0b11743385015b38276e918",
    "torus-10x10/5/s3": "442dc62189db934aedf4c647e6aa4f8dc8893add48029ce4268f44179d756d2f",
    "torus-10x10/6/s0": "c0f389730d85d49b674d2fe05443e55c67749fd93cc04ec86227f4d4726e77d8",
    "torus-10x10/6/s3": "796003237a0d1ed755879684e4f3a2d8bd6c73c531eed0719096713ad327f448",
    "torus-10x10/7/s0": "bba9442040ec55e316a4358b061dba5daba9a6a0fc364973197aedced96e896a",
    "torus-10x10/7/s3": "88a5086e563fb75d6332ab7e9337200b7d635109abe1afcfafb11dbb5b9764f2",
    "torus-10x10/8/s0": "c84fd4d4185cb05947aec238bcd6c42bf3370430c5a0d943fe201ad9349e86bc",
    "torus-10x10/8/s3": "d4179dced7d784ca37140bfad6c31bb5711b6b585aa9313bfd7c972b56f15a7f",
    "dragonfly-4-9-2/2/s0": "2e4ed9f7dcf47f4d031ecc5084e7bc6b58e8fb2d23fa8141c8c168b14c414caa",
    "dragonfly-4-9-2/2/s3": "67722cf28de56208972e5d1686541815630d164587051fc10362c91c24f82eed",
    "dragonfly-4-9-2/3/s0": "0038a637c5633f77ed0cf4283b4bd13db7f4f7f37e2aa681c8a8cb0ded21a6e0",
    "dragonfly-4-9-2/3/s3": "983b978767310908815ebcf4e417b3074611c068e4f16a668296177e9ad2c357",
    "dragonfly-4-9-2/4/s0": "29bffebcd46f076b997493aac2325d19ddb4c1f87ce99a0d8b8b9d93a82f95f6",
    "dragonfly-4-9-2/4/s3": "8dc4abca2fe863f70668b4609b966895d74af4cf8a8f5690db7129883e5647de",
    "dragonfly-4-9-2/5/s0": "e799ecf0b81975d6051959097c633b0d7533104d6cb296c5de0414354dce7020",
    "dragonfly-4-9-2/5/s3": "bf61007c02a5dbbd1fcca04ced8a2adb3bbce30e264ef9fe0a66d4baf6c134b7",
    "dragonfly-4-9-2/6/s0": "9d79f03719a7c7def7658993f0f919b5ee04eceb44051f7dabf70466effc005c",
    "dragonfly-4-9-2/6/s3": "1bf2d76e7a6430de597af660df7d645e80d398c7d575d1b3d2ac4b92ab370544",
    "dragonfly-4-9-2/7/s0": "a94cfecf60673f95bc8ec871549ae6c3721f76b99c5ae214fd35b74aae854186",
    "dragonfly-4-9-2/7/s3": "5cb72730f0fe9a83380b55f3432c0cca74ad6cc3d670d8ac5b9b56497d0bd04f",
    "dragonfly-4-9-2/8/s0": "c77610eaf98cccf809c0f556c133283f8aa9b9f797ed5d1ac76732139e1063c1",
    "dragonfly-4-9-2/8/s3": "b27c6dda4c65595f6acdea8a71fa5b442932a5714acad2b9de3bf4d1cc70a73a",
    "mesh-5x5/2/s0": "083671ec746c2a710fa302c73d0f6b395bd63320997b707bac5dd19d93665101",
    "mesh-5x5/2/s3": "6104461fc9a5e0aa3895f5de0c742731c811eb72eaeaaa1bfe653415fc30a379",
    "mesh-5x5/3/s0": "279f5958fef080935b0c06cf6bd6d1c8f11ee7d23b2a1ba56d236ad53a8f5af7",
    "mesh-5x5/3/s3": "f92eba54910d6bf7fe67769e36813003a95a7cad4d763c44166c81a834ef93a5",
    "mesh-5x5/4/s0": "bebb63d5a15e8979f96470fffa5214c45563247da71cb874b249b83d9e86259c",
    "mesh-5x5/4/s3": "b86b154ec37a40c7a9a4374214f6fb21524ee4e518705a8bc6f08a2dac4453f5",
    "mesh-5x5/5/s0": "ba1a15f1b5511fbffdb830f56ac8054ffe00476bd01a4aad825f372f3cd2c770",
    "mesh-5x5/5/s3": "aaf65dfae52800503e65dc7b243daacd680d657ca5a38657eedd1fd4441ffb1d",
    "mesh-5x5/6/s0": "c6d50245c3c03a8fc2175e6166fa54fa57ce0062e62482eaf5f5fe572dd62496",
    "mesh-5x5/6/s3": "4d0b77a312e7a7dd7cd768429ec34f4c91f013372063c272c1f4279b6ee93326",
    "mesh-5x5/7/s0": "ad21a7873e34ec52d3125a7711b3fe3017556ae5c27bf6aab7506e4164b8e847",
    "mesh-5x5/7/s3": "834a98e7575fac1f8496bbcbfd2dfaa488dc32cdca5ae6a7a80186a795f1cb33",
    "mesh-5x5/8/s0": "b26e8c02dfefeb4e85895cad1521926a669c83ea9eef312d75b7423b05ef49b4",
    "mesh-5x5/8/s3": "fca5abc4d4a87936cb99b554fafdf780ef3abbdace40aaf59246520c06e2ffa5",
    "chain-20/2/s0": "5a446ba63671d6d5c770036dd21fd1b5bb0e9c5f3798be75e3f98f49d2b28fe5",
    "chain-20/2/s3": "5a446ba63671d6d5c770036dd21fd1b5bb0e9c5f3798be75e3f98f49d2b28fe5",
    "chain-20/3/s0": "26df21ae11accd11e5b5c6f4a0fab1f86bf47a590f8c58343edcb67310d1038f",
    "chain-20/3/s3": "2e6cafc5b2ef03036b0a2590ddb20832b47bc2e68b9a4c7fda3e08976ecc1bc7",
    "chain-20/4/s0": "52369ddae904a089cfe3e3aedab683b50b17114a2e06e86af6c5a0db80460d7d",
    "chain-20/4/s3": "6e9ea1e8535b421866c963e39a4a152a44a14a55dcc95981a014b07bff4a7130",
    "chain-20/5/s0": "9b0fccc4a5fb76663ac033fd12618b7c965e4a188f62cc2919475099f75d87af",
    "chain-20/5/s3": "277a75ca25555a88c28c1397e15d5cba80475288b2eb7e9922254c2deccd6ac5",
    "chain-20/6/s0": "27e95f0d63fe294349be6803f1b2af379153457c615c50820ab16a0771481cfe",
    "chain-20/6/s3": "2aa09b2325f7ad2285a9009241ba97ca22fe2ea3e1fce10a11294fe4c3819e33",
    "chain-20/7/s0": "08835d9b96eff9615e000b0af003edb123e66985a585bf48245cf3e9f600bf09",
    "chain-20/7/s3": "e412fc03aa5eed61fcfac8a5ff52cb58ee102cc49e7fbe00ea9c95f1672c3ce3",
    "chain-20/8/s0": "eb839be48a868151e2a657f94ee9749b63632263c37f69e1ef0d284fd1475027",
    "chain-20/8/s3": "5b23cbe79daea60d10d1cb6221eff6ec87fbf149cffa66a6d44a82fac072f8d3",
    "zoo-Deltacom/2/s0": "102899c502fc37055d271726ccc9b8a1b1ef41715688e11ba8f4b3430f536c8d",
    "zoo-Deltacom/2/s3": "c774c200163848739c83569e49b10c9a7d97a2cf38e8ecf8725296b8fc20bb3d",
    "zoo-Deltacom/3/s0": "5b91da39da5ab2eedc0fdfb4db7273d25fa46041f50f800175fd3bb708151739",
    "zoo-Deltacom/3/s3": "1d8295a6ad72490a49f2a002d0cf48a2889994ccb972e777ec5a1c7aec35ff3f",
    "zoo-Deltacom/4/s0": "e21a750fb4564adc54bd37ef627be6c5b5343582b629395276711dddf93546ff",
    "zoo-Deltacom/4/s3": "8fb5a5caee6475c49133f04d3422a5b58f3d552138881c54eb27a4e8ba4846a8",
    "zoo-Deltacom/5/s0": "0ee5f40aaae2b2fe6f9c2602ecb2aeb8ead47fbf9820a54a721b200ab5eaf359",
    "zoo-Deltacom/5/s3": "7dba9f76aee67c28be4deed901cf4268cadd92ae9afa2cd7147de88360275727",
    "zoo-Deltacom/6/s0": "6fdcceb8b40eae150ca0226ec929ba8efd773f8555ee16184fc5ceca88453068",
    "zoo-Deltacom/6/s3": "1b3547f106b5ece34c141dc51b1ad3f553e77b9a551431e0a89f754ecfb71437",
    "zoo-Deltacom/7/s0": "ab0dd09b1275d6d84e139c9c692c00feebb35f02b59eddfced8ec07beadaae09",
    "zoo-Deltacom/7/s3": "a9c4ae5d5de2830b89fa860778ad03284fa287cc76a39f9d601e545005009b5f",
    "zoo-Deltacom/8/s0": "739c8b63e20e65e989e845c60fe22f8c25d789846a1a92366625b6aa312c2a9b",
    "zoo-Deltacom/8/s3": "1cbf25f7459006ed6995511bb1d2ce5d95f760facb3b267a77cd1258ddd865f4",
    "zoo-Interoute/2/s0": "52469e5e72cb46144244e212ae462f73e7fe5c3b873e898a41a6bb2c24fb2259",
    "zoo-Interoute/2/s3": "582ecb50bf67195141711811e547ff2c2472bf11386d73d417f391cd4064b875",
    "zoo-Interoute/3/s0": "0da8e41af737bcdf85eb0536d63306e48e39056fea1504187a65d75bd3ef7b24",
    "zoo-Interoute/3/s3": "65602bf8ae58e501b04b87a90e2318b7ba3f04b8032f1d18d26881ed2af17001",
    "zoo-Interoute/4/s0": "4653258228252d60a836e909dbe5cfd31b6481e149fbe12f7b33eb33fd2efc82",
    "zoo-Interoute/4/s3": "38ba150fce21a9f9dac35e7e795da9a8b4310cf59d94841948842baaf7663a20",
    "zoo-Interoute/5/s0": "ea844282f483ce1e7397d4bde98c88232874d9a1d51d257e50b467e9fa6fd156",
    "zoo-Interoute/5/s3": "961b7c8fc1cab6705334fbe7d678e4f429e6b1c364863f3a28184f05a7beecb1",
    "zoo-Interoute/6/s0": "990cb58985539071c7930ef812bfed895c30888e6e7de674028a00c59ae4d5c3",
    "zoo-Interoute/6/s3": "bf5e00eb061d99a33148dcb986678fc2a4d2b4868ddc41b3abb7d226489d6716",
    "zoo-Interoute/7/s0": "8a4a81b314d7e995078d86e05a48002fec6ed2336902bfecb78d9e1656597f52",
    "zoo-Interoute/7/s3": "4e84632b83fc2fb16d8dd3f954ec15b9d7951f453c19d68b25dd3fe318d603b5",
    "zoo-Interoute/8/s0": "5665c800f97f08c84a80b8d2b4e450a06464d50ca9f4d567aea7aa0729687aef",
    "zoo-Interoute/8/s3": "5533c03105b2792f4a307b09be32a28c3548272a7f826f4f2ffc6d7cff7093e8",
    "random-0": "6bd082b4348a6e34d426f593eb1017d32d033377ed11d644e567b61dd8b7539e",
    "random-1": "caaad04a9fa5c37a3230e7cc33a6345d362678a703500b1d3cc16da226a20450",
    "random-2": "868f9c87079cf453dd50d47696f528caf33dd31dbe9022736bcbed34786ea0e6",
    "random-3": "683fdad43f5c680fe1606ff7bb4ac41b2dcf689aab670c10ef9794e0784f6037",
    "random-4": "5a4a09efe95cb940e609ec38edc39700170f94e80bfe5f5a8f4f3a0e114e19e0",
    "random-5": "c470e361eefd8fd7d5fe6d6be10e7352fa51731fdca67202355837b554c0995d",
    "random-6": "71843feeea834c61fcc5637a42cb237664bf01ad8181d2a71685dec39aa25d3c",
    "random-7": "994c061dd85c33d7cf282f0d0d7b08ceba16ad1a96e2b78e4f22c681f41dcb50",
    "random-8": "0740fa8c276386edd1117a82e48ed7d4a7d1f29075c40ef0ff866df71215f858",
    "random-9": "9a1d4fbe4a34c9b573321e6eaf96d5705297caee8f50d37c86e42e6f5fca63bd",
    "random-10": "169d05d05ae8e2698ab1a8345806ba678c681001d4e25c7ebe6ec809ad983be3",
    "random-11": "3117d5daafca0d92e0eee2440891d9cf0b318c29beba6c120e762c87fb832446",
    "random-12": "b9fba46fea51c060883a57a007baca4d1b92f5acfc567acadbcb8e348832bcf5",
    "random-13": "10b1e6e8722e52a6ea43989887277e059b13cd6f91a8adfbbf88183f7b9855de",
    "random-14": "81c094e3c51990f31f21c3a7cd7889311e81737251b886963e36fc6490482728",
    "random-15": "4ae2e0aea0b17738b9bb96064d34fbdc3205311833e7ba8f996be33b556b8668",
    "random-16": "62b7846bbcfe90b9e5687688b92bdc98aaf297abfe70226b9b048d77eb444f7d",
    "random-17": "61dfa039de89d81f847cb916f94a7daea5d1b57e7e7e1fee0a05e0b926e0dcd6",
    "random-18": "eb52c733c5dd56123766d3e36680c8031539e673dee3267165d95b060a7d7eb9",
    "random-19": "16b1d5f173fd7a189f7cd8c18cd03539e10af2c00e8f89031467b8cdee487107",
    "random-20": "b1644f1d78a4e19a2755dd09a9c5bd6059ee2fd5b9f5f5d09bc884a22a72eccb",
    "random-21": "078ee17fa259f45db6103165c9472b299b38a5d86f020b6c789284ef46e526d0",
    "random-22": "2ba1fd2d5ef41e134fa24af2fe3d4a7ec96b9bad79078cdeae79f56de10396dc",
    "random-23": "d64268ba0ac75c0d35ce71da44e0a5e987fef79411762ad0c328e44db6929628",
    "random-24": "034a2c2bfdeea448aa67178b11d0210b545502167f1edabb9dbb8460ce5bf4c8",
    "random-25": "efb13a1525292e73b5b797872954f902582e81d1dd8b362ec7a99416d94b6b26",
    "random-26": "c9a83da731b50238caba91d5ee99ba55bd02cdf8e6fae6a2fcf12c0bde8c09bb",
    "random-27": "92b684fb734f3591045f43455802c39829b85cfa5dfa4a2aef2564408cac6654",
    "random-28": "509bc7f8c1207fe8b29b578a8ca94696f6356a3867ea44baa2ab66f9d29f5379",
    "random-29": "ec9dcceeda2c368ec092addd12f0f031e7d5ddfa8ed34e5a85c38c0ab7eedd1a",
    "random-30": "76a0b5087a00af07f03f12763ccb32545a4a6b633464941c836ff8c0f6780da4",
    "random-31": "4403c0e431929a540116815e0cc2867cbdc0f7bdda9f520e59d185c4e9b01c95",
    "random-32": "9bf87eca3084214922e09d1abe054fe9662db52df40e35351a46d8b41b2f2d8e",
    "random-33": "f2cded6cf6607a6c51f64896a75933e18a5e17ab1f2f131e9b133508ca9551c8",
    "random-34": "ce4d54a9c0708462d696a18833491b3b674600ed828c9ab634360120a792dde7",
    "random-35": "393ff56402c6551fbe31a4428beea53da5c15eccccdb39fdb90f4ce29990c946",
    "random-36": "eba7d6ddc3176f8993d2af1fdef40ff57d6107ce9fca28fc90ee259817cb8841",
    "random-37": "65720a77dfbeacb4fa14371c380bb4b6d826f0b723f2b5a2baf4513b66d028ab",
    "random-38": "20b8ea2d70483f6b3025f5e6739f49b9b3b55617d423d7e4c6c742c6f1efd75a",
    "random-39": "9a269826e4f9695a56c2b97c3a3a0541e1606bcff6b9c571a66c87f930af1d65",
    "random-40": "1dfd6e1b0346484c2db76d3dcf983ce7ca1b225af10a4917bccba961a1114ed0",
    "random-41": "46c2a922876a400657b20424cf752d4369b51781e054dfc815e7c69725252181",
    "random-42": "103208720b3ad4830344910adbd87ce0ab05b9711ba22d068b4af26072078a3d",
    "random-43": "ea0020b459ee643fa18b311890cc1e0974355ff7a732fca4c551f0f738f39058",
    "random-44": "fd43252de6d48be9eb80f8181dc3e2ef9cdb17e8136c5d28c0fc6348b45380e8",
    "random-45": "283fc39003bfe6de8fe0815930566dc4a6d27d66ef67b0257e06120f2043e0ed",
    "random-46": "96af952a4ae97d91f35c6e9377f72691f21d98d7d33431738b42ca7a97501c65",
    "random-47": "0b4d33f75dd91b5e23a497d7d144080bd22bb0a3beabef1534b77a461304f9c6",
    "random-48": "4f32e0db3be3e1b4e0b917bc8dcfaf3c253af1aa45c33a9847b9fbf6397ce11d",
    "random-49": "73f74f9743dc774beee53315e65cc888f80a66e47cd874faae51be66fe0b42c1",
    "random-50": "9d576be747fb86a97c71f6c48631ddd5b6cf638b2ec75aa02bbe868ed51c23cb",
    "random-51": "aa52522b8055a9d4f67c7141dbd5be382d51db850a5e158fc8251ae0ef77d2a4",
    "random-52": "8e256a137554d3024b84bd13bb13e264dc7b77f09b6063234a99a6aad8c95c18",
    "random-53": "bd6aff2b29d51f3579f1eeeb5b8a105856adc071998a0422ea53554ae16cab7c",
    "random-54": "e4ebe3229237187ec2bc1b7a38fc64421efd313158ecf222dd15aae02ea7ec7a",
    "random-55": "5001df30890d689e6b1c0727e70aa6d469f9da37e80b1dc0fd5459d98fc4844a",
    "random-56": "a4699d75be584bd636bfe5cb2ab810dd772fbf62cc8a9ccee17737757eb66b9f",
    "random-57": "1220d7e00e3cd6759d5af1546cf27b1c8c46eabaaa6fd21ce6e208f1841e97c7",
    "random-58": "ddb1c94097d920546c7ef345950846b62a5cc4b09f2cabacbe6fdc4cd0fb4119",
    "random-59": "e955cf9a4f006396843cd2664dcc8a87bc71690cd7f042a4cf9508648f1ae6a3",
}


@pytest.mark.parametrize(
    "compute", [topology_digests, random_digests], ids=["topologies", "random"]
)
def test_partitions_match_the_pinned_digests(compute):
    got = compute()
    pinned = {k: v for k, v in PINNED.items() if k in got}
    assert len(pinned) == len(got)
    differing = sorted(k for k in got if got[k] != pinned[k])
    assert not differing, f"partition drifted on {differing[:10]}"


def test_random_graphs_exercise_self_loops_and_components():
    loops = components = 0
    for case in RANDOM_CASES:
        g, _parts, _seed = random_graph(case)
        loops += any(u in nbrs for u, nbrs in g.adj.items())
        components += len(bfs_parents(next(iter(g.adj)), g.adj)) < len(g.adj)
    assert loops > len(RANDOM_CASES) // 2
    assert components > len(RANDOM_CASES) // 2
