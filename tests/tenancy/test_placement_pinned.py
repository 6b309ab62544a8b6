"""Where every deployment lands, pinned bit for bit.

Placement reads one rule (§IV, §VI-B): a logical link takes the first
cable of the fixed wiring that no other live deployment holds, a
tenant's hosts land only on its leased host ports, and under the
``"occupancy"`` policy the parts go to the switches with the most
headroom first. Each case's digest is the SHA-256, after every
operation in order, of the operation's outcome (or its error's type
and text) and of every live deployment's ``port_map``, ``host_map``,
``link_realization`` and ``part_to_phys``, each in its own order. So
any drift in which cable, host port or physical switch a staging
binds moves a digest here.

The cases:

* seeded tenant churn through :class:`TestbedService` (occupancy
  placement, leases spread over three switches): deploys, incremental
  link-swap edits, cold edits to another shape, undeploys and
  evictions. The first :data:`PINNED_CHURN` cases are pinned;
  ``SDT_PROP_CASES`` runs more, and every case, pinned or not, checks
  that no two live deployments share a cable and that every tenant
  host sits inside its lease;
* a hybrid rig whose uneven wiring makes the headroom ranking's
  host-port and self-link terms decide placement, and whose starved
  self-links make the hybrid projector mint flex circuits;
* a lossy single-user ``reconfigure`` walk on a fat-tree k=4 that
  swaps links in place (the freed cable is free to the same edit) and
  goes cold to a torus and back.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import (
    H3C_S6861,
    OpticalCircuitSwitch,
    PhysicalCluster,
    default_wiring,
)
from repro.hardware.wiring import HostPort
from repro.telemetry import metrics
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.topology import chain, fat_tree, mesh2d, torus2d
from repro.topology.diff import link_key, rebuild, removable_switch_links
from repro.topology.graph import Topology
from tests.proptools import prop_cases, seeded_cases
from tests.tenancy.conftest import SPEC, run_op

ROOT_SEED = 20261019
TENANTS = ("t0", "t1", "t2", "t3")
#: the shapes a tenant deploys or goes cold to
SHAPES = (
    lambda: chain(3),
    lambda: chain(4),
    lambda: chain(5),
    lambda: mesh2d(2, 2),
    lambda: mesh2d(2, 3),
)


class _Digest:
    def __init__(self, controller: SDTController) -> None:
        self.controller = controller
        self.sha = hashlib.sha256()

    def update(self, *fields) -> None:
        self.sha.update(repr(fields).encode())
        self.sha.update(b"\n")

    def placements(self) -> None:
        for d in self.controller.deployments:
            p = d.projection
            self.update(
                d.name,
                list(p.port_map.items()),
                list(p.host_map.items()),
                list(p.link_realization.items()),
                list(p.part_to_phys.items()),
            )

    def op(self, label: str, fn, *args, **kwargs):
        """Run one operation and hash its outcome and every placement
        after it; a refused operation hashes its error."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.update(label, "refused", type(exc).__name__, str(exc))
            result = None
        else:
            self.update(label, "ok")
        self.placements()
        return result

    def hexdigest(self) -> str:
        return self.sha.hexdigest()


def _variant(topology, rng, name: str):
    """``topology`` with one removable switch link dropped and a link
    added between two switches it did not join: a custom config whose
    surviving links keep their order, so the edit is incremental when
    the wiring allows."""
    drop = removable_switch_links(topology)
    if not drop:
        return rebuild(topology, name=name)
    dropped = drop[int(rng.integers(len(drop)))]
    joined = {link_key(*l.endpoints) for l in topology.switch_links}
    switches = topology.switches
    pairs = [
        (a, b)
        for i, a in enumerate(switches)
        for b in switches[i + 1:]
        if link_key(a, b) not in joined
    ]
    add = [pairs[int(rng.integers(len(pairs)))]] if pairs else []
    return rebuild(topology, drop_links={dropped}, add_links=add, name=name)


def _kind_swapped(topology, name: str):
    """``topology`` with its switch and host names swapped (``s0`` ↔
    ``h0``): against a live shape of the same naming, nodes change kind,
    so the edit is a cold generation swap."""
    swap = {n: ("h" if n.startswith("s") else "s") + n[1:] for n in topology.nodes}
    edited = Topology(name)
    for sw in topology.switches:
        edited.add_switch(swap[sw])
    for h in topology.hosts:
        edited.add_host(swap[h])
    for link in topology.links:
        edited.connect(swap[link.a.node], swap[link.b.node])
    return edited


def _invariants(service: TestbedService) -> None:
    """No cable is bound twice; every tenant host is in its lease."""
    held: dict = {}
    for d in service.controller.deployments:
        for cable in d.projection.link_realization.values():
            assert cable not in held, f"{cable} bound by {held[cable]} and {d.name}"
            held[cable] = d.name
    for session in service.sessions.values():
        lease = set(session.lease)
        for d in session.deployments.values():
            for cable in d.projection.link_realization.values():
                if isinstance(cable, HostPort):
                    assert cable in lease, f"{session.tenant_id}: {cable} not leased"


def _churn(rng) -> tuple[str, dict]:
    """One seeded churn run; returns its digest and how many edits went
    each way."""
    pool = build_pool_for_tenants(
        [chain(5), mesh2d(2, 3), chain(4), mesh2d(2, 2)], 3, SPEC, spare_hosts=6
    )
    service = TestbedService(pool)
    modes = metrics.registry().counter("sdt_controller_reconfigure_mode_total")
    before = {m: modes.value(mode=m) for m in ("incremental", "cold")}
    d = _Digest(service.controller)
    live: dict[str, dict | None] = {t: None for t in TENANTS}
    serial = 0
    try:
        for _ in range(18):
            t = TENANTS[int(rng.integers(len(TENANTS)))]
            deps = live[t]
            roll = rng.random()
            if deps is None:
                quota = TenantQuota(
                    host_ports=int(rng.integers(6, 11)), tcam_share=1500
                )
                if d.op(f"open {t}", service.open_session, t, quota) is not None:
                    live[t] = {}
            elif not deps or (roll < 0.3 and len(deps) < 2):
                serial += 1
                topo = SHAPES[int(rng.integers(len(SHAPES)))]()
                config = TopologyConfig.from_topology(
                    rebuild(topo, name=f"{t}-{serial}")
                )
                dep = d.op(f"deploy {t}", run_op, service, "deploy", t, config=config)
                if dep is not None:
                    deps[dep.name] = dep.topology
            elif roll < 0.9:
                name = sorted(deps)[int(rng.integers(len(deps)))]
                if roll < 0.65:  # swap a link in place
                    topo = _variant(deps[name], rng, name)
                else:  # go cold to another shape
                    topo = _kind_swapped(
                        SHAPES[int(rng.integers(len(SHAPES)))](), name
                    )
                dep = d.op(
                    f"reconfigure {t} {name}", run_op, service, "reconfigure", t,
                    name=name, config=TopologyConfig.from_topology(topo),
                )
                if dep is not None:
                    deps[name] = dep.topology
            elif roll < 0.95:
                name = sorted(deps)[int(rng.integers(len(deps)))]
                if d.op(f"undeploy {t} {name}", run_op, service, "undeploy", t,
                        name=name) is not None:
                    del deps[name]
            else:
                d.op(f"evict {t}", run_op, service, "evict", t)
                live[t] = None
            _invariants(service)
    finally:
        service.shutdown()
    return d.hexdigest(), {m: modes.value(mode=m) - n for m, n in before.items()}


def _hybrid_occupancy() -> str:
    """Uneven wiring under occupancy placement: on the empty pool the
    free entries tie, so the free host ports rank the switches, and the
    self-link term and the names decide among what is left. Few
    self-links make chains and meshes need flex circuits."""
    names = ["phys0", "phys1", "phys2"]
    base = default_wiring(
        names, 64, hosts_per_switch=8, inter_links_per_pair=1,
        flex_ports_per_switch=8,
    )
    hosts_kept = {"phys0": 5, "phys1": 8, "phys2": 6}
    selfs_kept = {"phys0": 1, "phys1": 0, "phys2": 2}
    wiring = replace(
        base,
        host_ports=[
            h for h in base.host_ports
            if h.port <= hosts_kept[h.switch]
        ],
        self_links=[
            s for s in base.self_links
            if sum(
                1 for o in base.self_links_of(s.switch) if o.port_a <= s.port_a
            ) <= selfs_kept[s.switch]
        ],
    )
    wiring.validate()
    cluster = PhysicalCluster.build(3, H3C_S6861, wiring=wiring)
    controller = SDTController(
        cluster, optical=OpticalCircuitSwitch(num_ports=24), placement="occupancy"
    )
    d = _Digest(controller)
    first = d.op("deploy chain-4", controller.deploy, chain(4))
    second = d.op("deploy mesh-2x2", controller.deploy, mesh2d(2, 2))
    d.update(sorted(controller.optical.circuits.items()))
    assert controller.optical.circuits, "the rig minted no flex circuit"
    d.op("edit chain-4", controller.edit, first, chain(5))
    d.update(sorted(controller.optical.circuits.items()))
    d.op("undeploy mesh-2x2", controller.undeploy, second)
    d.op("deploy chain-3", controller.deploy, chain(3, hosts_per_switch=2))
    d.update(sorted(controller.optical.circuits.items()))
    return d.hexdigest()


def _lossy_walk() -> str:
    """A lossy fat-tree k=4 on two switches: seeded in-place link swaps
    (incremental), then cold to a 4×4 torus and back."""
    base = fat_tree(4)
    cluster = build_cluster_for([base, torus2d(4, 4)], 2, H3C_S6861)
    controller = SDTController(cluster)
    d = _Digest(controller)
    d.op("deploy", controller.reconfigure,
         TopologyConfig.from_topology(base, lossless=False))
    topo = base
    for _, rng in seeded_cases(6, ROOT_SEED, "walk"):
        topo = _variant(topo, rng, base.name)
        d.op("swap", controller.reconfigure,
             TopologyConfig.from_topology(topo, lossless=False))
    torus = TopologyConfig("torus2d", {"x": 4, "y": 4}, lossless=False)
    d.op("torus", controller.reconfigure, torus)
    d.op("back", controller.reconfigure,
         TopologyConfig.from_topology(base, lossless=False))
    return d.hexdigest()


#: taken at the parent of the change that folds the free-wiring rule
#: into one view, before any source line moved
PINNED_CHURN = [
    "4c44d565c025d0f3cc5f3e0d99fe2ad5a5a5bf0dd8c82d0d98708d7240c391c1",
    "ea07fa02c7d4c258d8f31188f03cd1230fa13b6e641e5069c41f5bf476f3be20",
    "daa78dd15d5f0e38d46fed34962ded4d6de1c44f1852cb323eb082db7a94e263",
    "6c432aa50828e19dd89574dd448ef4192a3ed91dba8c9bc32f8ea8f7449007fe",
    "bb2e6c5ebd0cb2dcbfa6921ff40252ccda4d65d89d8cd1aac9dff3d60b2298dd",
]
PINNED = {
    "hybrid-occupancy": "21d42590c401a65b45c8b5aa21ccc9fcbac6957115b68d8d0e45ea5cbc3715d8",
    "lossy-walk": "1e3d74f35acdd1e7e8e95f69e4f1b95e04dc746adc7aa14aaa4b785a5f20d9a9",
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_placement_matches_its_pinned_digest(case):
    assert {"hybrid-occupancy": _hybrid_occupancy, "lossy-walk": _lossy_walk}[
        case
    ]() == PINNED[case]


def test_tenant_churn_placement_is_pinned():
    seen = {"incremental": 0, "cold": 0}
    n = prop_cases(len(PINNED_CHURN))
    for i, rng in seeded_cases(n, ROOT_SEED, "churn"):
        digest, modes = _churn(rng)
        for mode, count in modes.items():
            seen[mode] += count
        if i < len(PINNED_CHURN):
            assert digest == PINNED_CHURN[i], f"churn case {i}"
    assert seen["incremental"] and seen["cold"], seen


if __name__ == "__main__":  # print the digests to pin
    for _, rng in seeded_cases(len(PINNED_CHURN), ROOT_SEED, "churn"):
        digest, modes = _churn(rng)
        print(f'    "{digest}",  # {modes}')
    print(f'    "hybrid-occupancy": "{_hybrid_occupancy()}",')
    print(f'    "lossy-walk": "{_lossy_walk()}",')
