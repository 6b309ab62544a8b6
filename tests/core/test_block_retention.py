"""A rule generation the switches no longer hold is not kept alive.

Each test holds a weak reference to every compiled block of one
generation, retires the generation the way an operator would — an
undeploy, a cold edit, a tenant eviction — drops its own strong
references and collects: no block may survive. An incremental edit
keeps the unchanged blocks and releases the ones it replaced. A controller-wide store
of compiled blocks would keep every dead generation reachable, which a
long-running service pays for in memory per served session.
"""

from __future__ import annotations

import gc
import weakref

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import H3C_S6861
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.topology import fat_tree, torus2d
from repro.topology.diff import rebuild, removable_switch_links
from tests.tenancy.conftest import CHAIN4, CHAIN6, SPEC, run_op

FT4 = TopologyConfig("fat-tree", {"k": 4})
TORUS = TopologyConfig("torus2d", {"x": 4, "y": 4})


def _refs(deployment) -> list[weakref.ref]:
    refs = [weakref.ref(block) for block in deployment.rules.blocks]
    assert refs
    return refs


def _alive(refs: list[weakref.ref]) -> int:
    gc.collect()
    return sum(ref() is not None for ref in refs)


def _controller() -> SDTController:
    return SDTController(
        build_cluster_for([fat_tree(4), torus2d(4, 4)], 2, H3C_S6861)
    )


def test_undeploy_releases_every_block():
    controller = _controller()
    deployment = controller.deploy(FT4)
    refs = _refs(deployment)
    controller.undeploy(deployment)
    del deployment
    assert _alive(refs) == 0


def test_cold_edit_releases_the_replaced_generation():
    controller = _controller()
    deployment = controller.deploy(FT4)
    refs = _refs(deployment)
    edited, _ = controller.edit(deployment, TORUS)
    assert edited.cookie != deployment.cookie  # a new generation: cold
    del deployment
    assert _alive(refs) == 0
    assert controller.deployments == [edited]


def test_incremental_edit_releases_the_blocks_it_replaced():
    controller = _controller()
    base = fat_tree(4)
    deployment = controller.deploy(TopologyConfig.from_topology(base))
    old = list(deployment.rules.blocks)
    edited = rebuild(base, drop_links={removable_switch_links(base)[0]})
    controller.edit(deployment, TopologyConfig.from_topology(edited))
    assert controller.deployments == [deployment]  # edited in place
    kept = {id(block) for block in deployment.rules.blocks}
    refs = [weakref.ref(block) for block in old if id(block) not in kept]
    assert refs
    del old
    assert _alive(refs) == 0


def test_tenant_eviction_releases_its_blocks():
    pool = build_pool_for_tenants(
        [CHAIN6.build(), CHAIN4.build()], 2, SPEC, spare_hosts=8
    )
    service = TestbedService(pool)
    try:
        quota = TenantQuota(host_ports=8, tcam_share=2000)
        service.open_session("alice", quota)
        service.open_session("bob", quota)
        run_op(service, "deploy", "bob", config=CHAIN6)
        deployment = run_op(service, "deploy", "alice", config=CHAIN4)
        refs = _refs(deployment)
        run_op(service, "evict", "alice")
        del deployment
        assert _alive(refs) == 0
    finally:
        service.shutdown()
