"""What an edit leaves behind, pinned bit for bit.

Each case's digest is the SHA-256 over every edit it runs, in order,
of what the edit left: every switch's ``installed_rules()`` (name
order), the edited deployment's cookie, ``routes_strategy`` and
``lossless``, the controller's ``last_commit_strategy`` and the
modeled time the edit returned — or, for a refused edit, the error's
type and text and the switches' rules after it.

So any drift in which staging an edit takes (incremental,
make-before-break, break-before-make), in the rules and cookie it
installs, in the route table it installs them from, or in what it
charges moves a digest here.

Covers cold make-before-break and break-before-make edits, lossless
and lossy, and fat-tree ↔ torus edits that try the incremental path
first; ``reconfigure`` of one user's deployment and tenant edits
through ``AdmissionController.admit_swap`` (incremental, cold, and one
refused because no staging fits the pool's flow tables); an edit
pruned to ``active_hosts``; edits after ``fail_link`` and after a
route update, whose ``routes_strategy`` is None; cold edits on a
hybrid rig that mints optical circuits; and incremental 1-link drops
on a lossy fat-tree k=8 and a lossless fat-tree k=4.

Last, an undatelined torus edit on a lossless net is refused by
Deadlock Avoidance on the incremental path and on the cold one, with
every flow table untouched.
"""

from __future__ import annotations

import hashlib
from dataclasses import replace

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import EVAL_256x10G, H3C_S6861, OpticalCircuitSwitch
from repro.routing import shortest_path_routes
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.testbed import select_nodes
from repro.topology import chain, fat_tree, torus2d
from repro.topology.diff import rebuild, removable_switch_links
from repro.util.errors import DeadlockError
from tests.core.test_hybrid import starved_cluster
from tests.core.test_mutation_pipeline import CHAIN5, CHAIN9, FRESH_CHAIN6, TIGHT
from tests.tenancy.conftest import SPEC, run_op

FT4 = TopologyConfig("fat-tree", {"k": 4})
TORUS44 = TopologyConfig("torus2d", {"x": 4, "y": 4})
CHAIN3 = TopologyConfig("chain", {"num_switches": 3, "hosts_per_switch": 1})
CHAIN4 = TopologyConfig("chain", {"num_switches": 4, "hosts_per_switch": 1})


class _Digest:
    def __init__(self, cluster, controller: SDTController) -> None:
        self.cluster = cluster
        self.controller = controller
        self.sha = hashlib.sha256()

    def update(self, *fields) -> None:
        self.sha.update(repr(fields).encode())
        self.sha.update(b"\n")

    def tables(self) -> None:
        for name in sorted(self.cluster.switches):
            self.update(name, self.cluster.switches[name].installed_rules())

    def edit(self, fn, *args, **kwargs):
        """Run one edit and hash what it left; a refused edit hashes
        its error instead of a deployment."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self.update("refused", type(exc).__name__, str(exc))
            self.tables()
            return None
        deployment, modeled = result if isinstance(result, tuple) else (result, None)
        self.tables()
        self.update(
            "edit",
            deployment.cookie,
            deployment.routes_strategy,
            deployment.lossless,
            self.controller.last_commit_strategy,
            modeled,
        )
        return deployment

    def hexdigest(self) -> str:
        return self.sha.hexdigest()


def _pool_rig():
    """Room for a fat-tree k=4 and a 4×4 torus side by side: cold edits
    go make-before-break."""
    pool = build_pool_for_tenants(
        [FT4.build(), TORUS44.build()], 2, SPEC, spare_hosts=8
    )
    return pool, SDTController(pool)


def _tight_rig():
    """Room for one of them at a time: cold edits go break-before-make."""
    cluster = build_cluster_for([fat_tree(4), torus2d(4, 4)], 2, H3C_S6861)
    return cluster, SDTController(cluster)


def _cold(rig, lossless: bool, *, override: bool = False) -> str:
    """Fat-tree k=4 → 4×4 torus → back → torus. On the tight rig each
    edit tries the incremental path first; ``override`` installs a
    per-flow override before each edit, which pins it to the cold path."""
    cluster, controller = rig()
    d = _Digest(cluster, controller)
    deployment = controller.deploy(replace(FT4, lossless=lossless))
    for config in (TORUS44, FT4, TORUS44):
        if override:
            hosts = deployment.topology.hosts
            controller.install_flow_override(
                deployment, deployment.topology.switches[0],
                src=hosts[0], dst=hosts[5], out_port_index=0,
            )
        deployment = d.edit(
            controller.reconfigure, replace(config, lossless=lossless)
        )
    return d.hexdigest()


def _edit_topologies() -> str:
    """``edit`` of a named deployment, from bare topologies."""
    cluster, controller = _tight_rig()
    d = _Digest(cluster, controller)
    old = controller.deploy(chain(4))
    new = d.edit(controller.edit, old, fat_tree(4))
    d.edit(controller.edit, new, chain(5))
    return d.hexdigest()


def _pruned() -> str:
    cluster, controller = _tight_rig()
    d = _Digest(cluster, controller)
    controller.deploy(FT4)
    hosts = select_nodes(TORUS44.build(), 6)
    d.edit(controller.reconfigure, TORUS44, active_hosts=hosts)
    d.edit(controller.reconfigure, FT4, active_hosts=select_nodes(FT4.build(), 8))
    return d.hexdigest()


def _after_fail_link() -> str:
    cluster, controller = _tight_rig()
    d = _Digest(cluster, controller)
    deployment = controller.deploy(TORUS44)
    controller.fail_link(deployment, deployment.topology.switch_links[0].index)
    assert deployment.routes_strategy is None
    d.edit(controller.reconfigure, FT4)
    d.edit(controller.reconfigure, TORUS44)
    return d.hexdigest()


def _after_update_routes() -> str:
    """A live table no strategy produced (a route update) is rebuilt
    whole, but the edit stays incremental."""
    base = fat_tree(4)
    cluster = build_cluster_for([base], 2, EVAL_256x10G)
    controller = SDTController(cluster)
    d = _Digest(cluster, controller)
    deployment = controller.deploy(TopologyConfig.from_topology(base))
    controller.update_routes(deployment, shortest_path_routes(base))
    assert deployment.routes_strategy is None
    edited = rebuild(base, drop_links={removable_switch_links(base)[3]})
    d.edit(controller.reconfigure, TopologyConfig.from_topology(edited))
    d.edit(controller.reconfigure, TopologyConfig.from_topology(base))
    return d.hexdigest()


def _hybrid() -> str:
    cluster = starved_cluster()
    controller = SDTController(cluster, optical=OpticalCircuitSwitch(num_ports=16))
    d = _Digest(cluster, controller)
    old = controller.deploy(chain(4))
    new = d.edit(controller.edit, old, fat_tree(4))
    new = d.edit(controller.edit, new, fat_tree(4))
    d.update(sorted(controller.optical.circuits.items()))
    d.edit(controller.edit, new, chain(6))
    d.update(sorted(controller.optical.circuits.items()))
    return d.hexdigest()


def _incremental_k(k: int, switches: int, lossless: bool, every: int) -> str:
    base = fat_tree(k)
    base_config = TopologyConfig.from_topology(base, lossless=lossless)
    cluster = build_cluster_for([base], switches, EVAL_256x10G)
    controller = SDTController(cluster)
    d = _Digest(cluster, controller)
    controller.deploy(base_config)
    for link in removable_switch_links(base)[::every][:3]:
        edited = rebuild(base, drop_links={link})
        d.edit(
            controller.reconfigure,
            TopologyConfig.from_topology(edited, lossless=lossless),
        )
        d.edit(controller.reconfigure, base_config)
    return d.hexdigest()


def _tenant_edits() -> str:
    """Tenant edits beside a resident tenant: an incremental chain edit,
    a cold make-before-break swap to another kind, and back."""
    pool = build_pool_for_tenants(
        [FT4.build(), TORUS44.build(), CHAIN4.build()], 3, SPEC, spare_hosts=32
    )
    service = TestbedService(pool)
    try:
        controller = service.controller
        d = _Digest(pool, controller)
        service.open_session("resident", TenantQuota(host_ports=24, tcam_share=2000))
        run_op(service, "deploy", "resident", config=FT4)
        service.open_session("t", TenantQuota(host_ports=24, tcam_share=2000))
        dep = d.edit(run_op, service, "deploy", "t", config=CHAIN3)
        for config in (CHAIN4, TORUS44, CHAIN3):
            dep = d.edit(
                run_op, service, "reconfigure", "t", name=dep.name, config=config
            )
        return d.hexdigest()
    finally:
        service.shutdown()


def _tenant_tight() -> str:
    """The tight pool of ``tests/core/test_mutation_pipeline.py``: a
    tenant edit that fits only break-before-make, then one that fits
    neither way and is refused."""
    pool = build_pool_for_tenants(
        [CHAIN9.build(), CHAIN9.build()], 2, TIGHT, spare_hosts=4
    )
    service = TestbedService(pool)
    try:
        d = _Digest(pool, service.controller)
        service.open_session("t", TenantQuota(host_ports=12, tcam_share=100))
        dep = d.edit(run_op, service, "deploy", "t", config=CHAIN5)
        dep = d.edit(
            run_op, service, "reconfigure", "t", name=dep.name, config=FRESH_CHAIN6
        )
        d.edit(run_op, service, "reconfigure", "t", name=dep.name, config=CHAIN9)
        return d.hexdigest()
    finally:
        service.shutdown()


CASES = {
    "cold-mbb-lossless": lambda: _cold(_pool_rig, True, override=True),
    "cold-mbb-lossy": lambda: _cold(_pool_rig, False, override=True),
    "incremental-ft4-torus": lambda: _cold(_pool_rig, True),
    "cold-bbm-lossless": lambda: _cold(_tight_rig, True),
    "cold-bbm-lossy": lambda: _cold(_tight_rig, False),
    "edit-topologies": _edit_topologies,
    "pruned": _pruned,
    "after-fail-link": _after_fail_link,
    "after-update-routes": _after_update_routes,
    "hybrid": _hybrid,
    "incremental-k8-lossy": lambda: _incremental_k(8, 4, False, 29),
    "incremental-k4-lossless": lambda: _incremental_k(4, 2, True, 5),
    "tenant-edits": _tenant_edits,
    "tenant-tight": _tenant_tight,
}

#: taken at the parent of the change that shares one request, route
#: table and vet among an edit's stagings
PINNED = {
    "after-fail-link": "2047e54d7d06cf709f6c195d2e1bd620df9564549b44ee67cff7569d574910ec",
    "after-update-routes": "01c6cc85a3faf33b2c33b05aa5d1ad7e55c9af4175be1b935ac5d84b1cc5021e",
    "cold-bbm-lossless": "1fd37b1e4f021727e12510a78185794a9150484a5234f6c80d778eb6eb2997ee",
    "cold-bbm-lossy": "30e22ae57aceeb2cf8101ac868b969ebaa8321189a896b0f7b0dbfbf172d66ea",
    "cold-mbb-lossless": "54f0edbf6ca136bcfa5d2747f046662a9d6c2869a2bb8a3f336ec13892d2497b",
    "cold-mbb-lossy": "34364bb41f59c0aec42bc124b224b777a98f85ddd18aa5f7740f8b3c4167b976",
    "edit-topologies": "6898074c847821a5a69b8a72b70f63abdcfb9cd841cc13a675f3878006cc0ee9",
    "hybrid": "5445d0dbe0973e4fe5574bd8e4c9b9fae626f3314bc6ae50d9a927a471eae115",
    "incremental-k4-lossless": "237f5410f5087dac00fc914d6127df20c1bf3995d9825a1d6c98598e30c73c9e",
    "incremental-k8-lossy": "819a17ae83a60cbeff96786e0d4ff40d839bae4993514f37e69131a38d8fa71d",
    "incremental-ft4-torus": "b408e33b9782abfec0c98a41b7a3c428d7a23e9beb7445671c0fc9a90d57c0dc",
    "pruned": "44be6a3fc2fcbc215c7c92255ca4bdcfd6c9a9828459e8b1aa59a254417f721f",
    "tenant-edits": "3566d7db028f50831d4091c7a33a87a2b850dced4dd27710f2bef89c10c28db8",
    "tenant-tight": "152a08b54542ce222ec544d3f4bc2c9cb7969d9e93661402a1e66ee5c61788e6",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_edit_outcomes_match_their_pinned_digest(case):
    assert CASES[case]() == PINNED[case]


def _undatelined_torus_edit(**kwargs) -> None:
    """A live lossless 4×4 torus (dateline VCs) edited to shortest-path
    routes with one link dropped: the channel dependency graph has a
    cycle, so the edit is refused and no flow table moves."""
    base = torus2d(4, 4)
    cluster = build_cluster_for([base], 2, H3C_S6861)
    controller = SDTController(cluster)
    live = TopologyConfig.from_topology(base, lossless=True)
    deployment = controller.deploy(replace(live, routing="torus-dateline"))
    before = {n: sw.installed_rules() for n, sw in cluster.switches.items()}
    edited = rebuild(base, drop_links={removable_switch_links(base)[0]})
    config = TopologyConfig.from_topology(edited, lossless=True)
    assert config.routing == "shortest-path"
    with pytest.raises(DeadlockError, match="cycle"):
        controller.reconfigure(config, **kwargs)
    assert {n: sw.installed_rules() for n, sw in cluster.switches.items()} == before
    assert controller.deployments == [deployment]
    assert len(deployment.topology.links) == len(base.links)


def test_an_undatelined_torus_edit_is_refused_incrementally():
    _undatelined_torus_edit()


def test_an_undatelined_torus_edit_is_refused_cold():
    # pruning pins the edit to the cold path
    _undatelined_torus_edit(active_hosts=select_nodes(torus2d(4, 4), 8))


if __name__ == "__main__":  # print the digests to pin
    for name in sorted(CASES):
        print(f'    "{name}": "{CASES[name]()}",')
