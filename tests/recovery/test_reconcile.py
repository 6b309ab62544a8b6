"""Switch-state reconciliation: drift detection and one-transaction
repair.

Repair re-installs at the transaction's staging order, which can move
repaired rules to the table tail — so post-repair comparisons are by
sorted rule multiset (identity + instructions), not table order.
"""

from __future__ import annotations

import pytest

from repro.telemetry import Tracer, install_tracer, uninstall_tracer
from tests.recovery.conftest import installed_state


def _sorted_state(cluster):
    return {
        name: sorted(rules) for name, rules in installed_state(cluster).items()
    }


def _some_intent_mod(deployment):
    """(switch_name, FlowMod) for one intended rule."""
    name = sorted(deployment.rules.mods)[0]
    return name, deployment.rules.mods[name][0]


def _delete_from_hardware(controller, name, mod):
    sw = controller.cluster.switches[name]
    removed = sw.remove_flows(
        cookie=mod.cookie, table_id=mod.table_id,
        priority=mod.priority, match=mod.match,
    )
    assert removed == 1
    return sw


@pytest.fixture()
def deployed(journaled):
    controller, deployment, _manager, _journal = journaled
    return controller, deployment


def test_clean_audit_touches_nothing(deployed):
    controller, _deployment = deployed
    before = installed_state(controller.cluster)
    report = controller.reconcile()
    assert report.clean
    assert report.modeled_time == 0.0
    assert report.drifted_switches == ()
    # exact table order preserved: a clean audit stages no transaction
    assert installed_state(controller.cluster) == before


def test_missing_rule_is_reinstalled(deployed):
    controller, deployment = deployed
    want = _sorted_state(controller.cluster)
    name, mod = _some_intent_mod(deployment)
    _delete_from_hardware(controller, name, mod)

    report = controller.reconcile()
    assert (report.missing, report.orphaned, report.modified) == (1, 0, 0)
    assert report.drifted_switches == (name,)
    assert report.modeled_time > 0.0
    assert _sorted_state(controller.cluster) == want
    assert controller.reconcile(dry_run=True).clean


def test_orphan_is_strict_deleted(deployed):
    controller, deployment = deployed
    want = _sorted_state(controller.cluster)
    name, mod = _some_intent_mod(deployment)
    sw = controller.cluster.switches[name]
    sw.add_flow(
        mod.table_id, mod.priority, mod.match, mod.instructions, cookie=777
    )

    report = controller.reconcile()
    assert (report.missing, report.orphaned, report.modified) == (0, 1, 0)
    assert _sorted_state(controller.cluster) == want


def test_modified_rule_is_replaced(deployed):
    controller, deployment = deployed
    want = _sorted_state(controller.cluster)
    name, mod = _some_intent_mod(deployment)
    # swap in a sibling's instructions under this rule's identity
    donor = next(
        m for m in deployment.rules.mods[name]
        if m.table_id == mod.table_id and m.instructions != mod.instructions
    )
    sw = _delete_from_hardware(controller, name, mod)
    sw.add_flow(
        mod.table_id, mod.priority, mod.match, donor.instructions,
        cookie=mod.cookie,
    )

    report = controller.reconcile()
    assert (report.missing, report.orphaned, report.modified) == (0, 0, 1)
    assert _sorted_state(controller.cluster) == want


def test_duplicate_identity_group_is_flushed(deployed):
    controller, deployment = deployed
    want = _sorted_state(controller.cluster)
    name, mod = _some_intent_mod(deployment)
    sw = controller.cluster.switches[name]
    # a second copy of an intended rule: strict deletes are ambiguous,
    # so reconcile flushes the group and re-installs the intended rule
    sw.add_flow(
        mod.table_id, mod.priority, mod.match, mod.instructions,
        cookie=mod.cookie,
    )

    report = controller.reconcile()
    assert report.duplicates == 1
    assert _sorted_state(controller.cluster) == want
    assert controller.reconcile(dry_run=True).clean


def test_dry_run_reports_without_repairing(deployed):
    controller, deployment = deployed
    name, mod = _some_intent_mod(deployment)
    _delete_from_hardware(controller, name, mod)
    drifted = installed_state(controller.cluster)

    report = controller.reconcile(dry_run=True)
    assert report.dry_run
    assert report.missing == 1
    assert report.modeled_time == 0.0
    assert installed_state(controller.cluster) == drifted  # untouched


def test_repair_is_staged_in_the_audit_span(deployed):
    """The staging events land in ``reconcile.audit`` — a dry run's as
    well, which opens no mutation — and the commit in the
    ``controller.reconcile`` mutation that follows it."""
    controller, deployment = deployed
    name, mod = _some_intent_mod(deployment)
    _delete_from_hardware(controller, name, mod)
    for dry_run in (True, False):
        tracer = install_tracer(Tracer())
        try:
            controller.reconcile(dry_run=dry_run)
        finally:
            uninstall_tracer()
        (audit,) = tracer.spans("reconcile.audit")
        assert audit["parent"] is None and audit["attrs"]["missing"] == 1
        stages = tracer.events("txn.stage")
        assert stages and {e["span"] for e in stages} == {audit["id"]}
        roots = [s for s in tracer.spans("controller.reconcile")
                 if s["parent"] is None]
        assert len(roots) == (0 if dry_run else 1)
        if not dry_run:
            (commit,) = tracer.spans("txn.commit")
            assert commit["parent"] == roots[0]["id"]


def test_override_deployments_are_skipped(deployed):
    controller, deployment = deployed
    controller.install_flow_override(
        deployment, deployment.topology.switches[0],
        src="h0", dst="h5", out_port_index=0,
    )
    before = installed_state(controller.cluster)

    report = controller.reconcile()
    # the whole deployment leaves the audit (its override shares the
    # cookie), so nothing is flagged and the override survives
    assert report.clean
    assert report.skipped_cookies == (deployment.cookie,)
    assert installed_state(controller.cluster) == before
