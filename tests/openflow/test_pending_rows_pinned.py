"""Installed flow tables, pinned bit for bit.

Each case's digest is the SHA-256 of every switch's ``snapshot()``
rows — per table, in snapshot order, each entry's ``(priority, match,
instructions, cookie, serial)`` — and its group table, taken from the
install path that built one flow entry per rule as the rule arrived.
A bulk install now keeps its rows pending until a reader needs them;
the entries those readers get must be the same, arrival serials
included, so any drift in serial reservation, in the order rows are
filed, or in the order a rule set's FlowMods are read off its blocks
moves a digest here.

Covers cold deploys (lossy fat-tree k=4/8/10, the default lossless
fat-tree k=4), three tenants deployed side by side on a shared pool,
and a live fat-tree k=8 after eight seeded 1-link edits and one
route update that an injected channel fault rolls back (a rollback
re-files the snapshot behind the serials the failed prefix used up).
"""

from __future__ import annotations

import hashlib
import random

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import EVAL_256x10G, SCALE_2048x10G
from repro.hardware.spec import SwitchSpec
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.topology import fat_tree
from repro.topology.diff import rebuild, removable_switch_links
from repro.util.errors import TransactionError
from repro.util.units import gbps


def _custom(topology) -> TopologyConfig:
    """``topology`` as a custom, shortest-path, lossy config (what the
    ``scale`` and ``reconfig`` bench suites deploy)."""
    return TopologyConfig(
        kind="custom",
        params={
            "name": topology.name,
            "switches": list(topology.switches),
            "hosts": list(topology.hosts),
            "links": [list(link.endpoints) for link in topology.links],
        },
        routing="shortest-path",
        lossless=False,
    )


def digest(cluster) -> str:
    """SHA-256 over every switch's snapshot rows and groups."""
    h = hashlib.sha256()
    for name in sorted(cluster.switches):
        snap = cluster.switches[name].snapshot()
        h.update(name.encode())
        for tid, table in enumerate(snap.tables):
            for e in table:
                row = (tid, e.priority, e.match, e.instructions, e.cookie, e.serial)
                h.update(repr(row).encode())
            h.update(b"|")
        h.update(repr(snap.groups).encode())
    return h.hexdigest()


def _cold(k: int, switches: int, spec) -> str:
    topology = fat_tree(k)
    cluster = build_cluster_for([topology], switches, spec)
    SDTController(cluster).deploy(_custom(topology))
    return digest(cluster)


def _lossless_k4() -> str:
    config = TopologyConfig("fat-tree", {"k": 4})
    cluster = build_cluster_for([config.build()], 2, EVAL_256x10G)
    SDTController(cluster).deploy(config)
    return digest(cluster)


_TENANTS = (
    ("alice", TopologyConfig("fat-tree", {"k": 4}), 24),
    ("bob", TopologyConfig("torus2d", {"x": 3, "y": 3, "hosts_per_switch": 1}), 12),
    ("carol", TopologyConfig("chain", {"num_switches": 6, "hosts_per_switch": 1}), 9),
)


def _pool() -> str:
    spec = SwitchSpec(
        model="pool-switch", num_ports=256, port_rate=gbps(10),
        flow_table_capacity=4096,
    )
    pool = build_pool_for_tenants(
        [config.build() for _t, config, _h in _TENANTS], 3, spec, spare_hosts=8
    )
    service = TestbedService(pool)
    try:
        for tenant, config, hosts in _TENANTS:
            service.open_session(
                tenant, TenantQuota(host_ports=hosts, tcam_share=2500)
            )
            service.scheduler.submit(
                service.make_operation("deploy", tenant, config=config)
            ).result()
        return digest(pool)
    finally:
        service.shutdown()


def _edits_and_rollback() -> dict[str, str]:
    base = fat_tree(8)
    cluster = build_cluster_for([base], 4, EVAL_256x10G)
    controller = SDTController(cluster)
    controller.deploy(_custom(base))
    links = removable_switch_links(base)
    rng = random.Random(20261017)
    out = {}
    for _ in range(4):
        link = links[rng.randrange(len(links))]
        controller.reconfigure(_custom(rebuild(base, drop_links={link})))
        controller.reconfigure(_custom(base))
    out["edits-k8"] = digest(cluster)
    # a whole new rule generation (routes re-installed under a fresh
    # cookie), cut part-way through one switch's rows: the prefix it
    # installed spans both tables before the rollback
    victim = cluster.switch_names[1]
    cluster.control.channel(victim).fail_after(
        cluster.switches[victim].num_entries // 3
    )
    deployment = controller.deployments[0]
    with pytest.raises(TransactionError):
        controller.update_routes(deployment, deployment.routes)
    out["rollback-k8"] = digest(cluster)
    return out


def pinned_digests() -> dict[str, str]:
    return {
        "lossy-k4": _cold(4, 2, EVAL_256x10G),
        "lossy-k8": _cold(8, 4, EVAL_256x10G),
        "lossy-k10": _cold(10, 6, SCALE_2048x10G),
        "lossless-k4": _lossless_k4(),
        "pool-3-tenants": _pool(),
        **_edits_and_rollback(),
    }


PINNED = {
    "lossy-k4": (
        "4ca5977344ebd62af92aaee973fad2e56bf5e15dcad70322281bb61ecce4d64d"
    ),
    "lossy-k8": (
        "86bc3b7efd86bf03c3671413273f4b12d2f3676cb25a899ec305de18e283b078"
    ),
    "lossy-k10": (
        "fa8246f9252d27165efa914585e615f65f2aa06e9d2a57c3248cf348cebe6cf1"
    ),
    "lossless-k4": (
        "6244e17a035ca655346efde3fea1d2296774b5f55b9b961f20b2c185e812382b"
    ),
    "pool-3-tenants": (
        "44d4cda75dc505e8a81e05eb69a4a72e91f2fe7288f27e5c8364596107a6a555"
    ),
    "edits-k8": (
        "0484047e3d53419cf539bbbaabb8bb92133c0945795011842fe0706e8797f982"
    ),
    "rollback-k8": (
        "0e1f9bd8d945874484b05c5a28eb5c2273fe0c04a7409ed1af6cb2bf869bb638"
    ),
}


def test_flow_tables_match_the_pinned_digests():
    got = pinned_digests()
    assert sorted(got) == sorted(PINNED)
    differing = sorted(k for k in got if got[k] != PINNED[k])
    assert not differing, f"flow tables drifted on {differing}"
