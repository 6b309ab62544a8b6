"""Who builds FlowMods, counted: ``sdt_rules_materialized_total``.

A rule set crosses the control channel as compiled blocks; FlowMods —
one Python object per rule — are built (``CompiledBlock.pairs()``, once
per block) only for consumers that need each message. The counter makes
that observable: it rises by a block's rule count the first time the
block is materialized, so "did this mutation take the per-message path,
and what did it cost?" is answered from the metrics registry.

Pinned here: a plain deploy, undeploy, traced deploy and tenant
deploy/undeploy build none; a journal or an armed channel fault each
cost exactly the deployed rule set; a generation swap builds none
either (the old generation is named by cookie and by the switches it
sits on, and the swap's capacity check prices the new one from its
row counts); an incremental edit builds exactly the rows it stages.
"""

from __future__ import annotations

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import EVAL_256x10G
from repro.openflow import ControlTransaction
from repro.recovery import CommitJournal, install_journal, uninstall_journal
from repro.routing.strategies import shortest_path_routes
from repro.telemetry import Tracer, install_tracer, metrics, uninstall_tracer
from repro.tenancy import TenantQuota, TestbedService, build_pool_for_tenants
from repro.topology import fat_tree, torus2d
from repro.topology.diff import rebuild, removable_switch_links
from tests.tenancy.conftest import run_op

FT4 = TopologyConfig("fat-tree", {"k": 4})


def _materialized() -> float:
    return metrics.registry().counter("sdt_rules_materialized_total").value()


def _controller() -> SDTController:
    # a fresh controller shares no block with another: no block arrives
    # with FlowMods some earlier test already built
    return SDTController(
        build_cluster_for([fat_tree(4), torus2d(4, 4)], 2, EVAL_256x10G)
    )


def test_plain_deploy_and_undeploy_build_no_flow_mod():
    controller = _controller()
    before = _materialized()
    deployment = controller.deploy(FT4)
    assert controller.cluster.control.total_flow_mods == deployment.rules.count()
    assert _materialized() == before
    # naming the switches the deployment sits on builds nothing either
    controller.undeploy(deployment)
    assert _materialized() == before
    assert all(block._pairs is None for block in deployment.rules.blocks)
    prepared = controller.prepare(TopologyConfig("torus2d", {"x": 4, "y": 4}))
    controller.deploy_prepared(prepared)
    assert _materialized() == before


def test_traced_deploy_builds_no_flow_mod():
    # a tracer observes commits, not messages: the install stays on the
    # block path
    controller = _controller()
    before = _materialized()
    install_tracer(Tracer())
    try:
        deployment = controller.deploy(FT4)
    finally:
        uninstall_tracer()
    assert controller.cluster.control.total_flow_mods == deployment.rules.count()
    assert _materialized() == before


def test_switches_accessor_is_the_key_order_of_mods():
    controller = _controller()
    rules = controller.prepare(FT4).rules
    before = _materialized()
    switches = rules.switches()
    assert _materialized() == before
    assert switches == tuple(rules.mods)
    assert _materialized() == before + rules.count()


@pytest.mark.parametrize("needs_messages", ["journal", "armed fault"])
def test_per_message_consumers_cost_the_rule_set_once(tmp_path, needs_messages):
    controller = _controller()
    before = _materialized()
    if needs_messages == "journal":
        install_journal(CommitJournal(tmp_path / "journal.jsonl"))
    else:
        # armed but never reached: the channel still has to count
        # every message against it
        channel = next(iter(controller.cluster.control.channels.values()))
        channel.fail_after(10**9)
    try:
        deployment = controller.deploy(FT4)
    finally:
        uninstall_journal()
    assert _materialized() == before + deployment.rules.count()
    # cached on the blocks: asking again is free
    deployment.rules.mods
    assert _materialized() == before + deployment.rules.count()


def test_generation_swap_builds_no_flow_mod():
    controller = _controller()
    deployment = controller.deploy(FT4)
    old_rules = deployment.rules
    before = _materialized()
    controller.update_routes(
        deployment, shortest_path_routes(deployment.topology)
    )
    # make-before-break is priced from per-(table, cookie) counts across
    # the old cookie's delete, so neither generation is built; the old
    # one is only named (cookie + switches)
    assert _materialized() == before
    assert all(block._pairs is None for block in old_rules.blocks)
    assert all(block._pairs is None for block in deployment.rules.blocks)


def test_cold_reconfigure_builds_no_flow_mod():
    # a pool wired for both generations at once
    controller = SDTController(build_pool_for_tenants(
        [fat_tree(4), torus2d(4, 4)], 2, EVAL_256x10G
    ))
    first = controller.deploy(FT4)
    before = _materialized()
    # a route-pruned edit is always a cold generation swap
    swapped, _t = controller.reconfigure(
        TopologyConfig("torus2d", {"x": 4, "y": 4}),
        active_hosts=torus2d(4, 4).hosts,
    )
    assert controller.deployments == [swapped]
    assert swapped.cookie != first.cookie
    assert controller.last_commit_strategy == "make-before-break"
    assert _materialized() == before
    for deployment in (first, swapped):
        assert all(block._pairs is None for block in deployment.rules.blocks)


def test_incremental_edit_materializes_exactly_what_it_stages(monkeypatch):
    """Each staged message of a delta is built from one materialized
    row — an install from its own FlowMod, a strict delete from the old
    entry's — and no other row is built: not the rows of shared
    blocks, nor the rows a dirty block shares with its old self. Each
    edit is compiled against the generation it replaces, so every
    dirty block — of the first edit and of the restore — is fresh."""
    staged = []
    stage_delta = ControlTransaction.stage_delta

    def recorded(txn, old_mods, new_mods):
        staged.append(stage_delta(txn, old_mods, new_mods))
        return staged[-1]

    monkeypatch.setattr(ControlTransaction, "stage_delta", recorded)
    controller = _controller()
    base = fat_tree(4)
    deployment = controller.deploy(TopologyConfig.from_topology(base))
    edited = rebuild(base, drop_links={removable_switch_links(base)[0]})
    for topology in (edited, base):
        old_rules = deployment.rules
        before = _materialized()
        controller.reconfigure(TopologyConfig.from_topology(topology))
        assert controller.deployments == [deployment]  # edited in place
        stats = staged[-1]
        assert _materialized() == before + stats.pushed
        shared = {id(b) for b in old_rules.blocks} & {
            id(b) for b in deployment.rules.blocks
        }
        dirty = sum(
            block.count
            for rules in (old_rules, deployment.rules)
            for block in rules.blocks
            if id(block) not in shared
        )
        assert 0 < stats.pushed < dirty
    assert len(staged) == 2


def test_tenant_deploy_and_undeploy_build_no_flow_mod():
    pool = build_pool_for_tenants([fat_tree(4)], 2, EVAL_256x10G, spare_hosts=8)
    service = TestbedService(pool)
    try:
        service.open_session("alice", TenantQuota(host_ports=24, tcam_share=2000))
        before = _materialized()
        deployment = run_op(service, "deploy", "alice", config=FT4)
        run_op(service, "undeploy", "alice", name=deployment.name)
        assert _materialized() == before
    finally:
        service.shutdown()
