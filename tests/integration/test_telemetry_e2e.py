"""Telemetry acceptance: one traced end-to-end run, analyzed offline.

A seeded deploy → traffic → reconfigure → fail_link run with a tracer
installed, dumped to JSONL (into ``SDT_TRACE_ARTIFACT_DIR`` when set,
so CI can upload the trace as a build artifact). The trace alone must
then reproduce the controller's own numbers **exactly**:

* rules installed during deploy = the ``flow_mods`` attribute of the
  ``txn.commit`` span inside ``controller.deploy`` =
  ``deployment.rules.count()``;
* every commit's duration = the max of its ``switch_times`` (each
  switch's share of the commit) = its ``modeled_time`` = the
  controller-returned time, compared with ``==``.

The trace records timing, not messages — the per-message history is
the recovery commit journal's — so a traced deploy writes far fewer
records than it installs rules.
"""

from __future__ import annotations

import os

import pytest

from repro.core import SDTController, TopologyConfig, build_cluster_for
from repro.hardware import H3C_S6861
from repro.netsim import RoceTransport, build_sdt_network
from repro.telemetry import (
    MetricsRegistry,
    Tracer,
    install_tracer,
    load_trace,
    set_registry,
    uninstall_tracer,
)
from repro.topology import fat_tree, torus2d

@pytest.fixture()
def traced_run(tmp_path):
    """Run the scripted e2e once; yield (trace records, live numbers)."""
    old_registry = set_registry(MetricsRegistry())
    tracer = install_tracer(Tracer())
    reported = {}
    try:
        cluster = build_cluster_for(
            [fat_tree(4), torus2d(4, 4)], 2, H3C_S6861
        )
        controller = SDTController(cluster)

        deployment = controller.deploy(TopologyConfig("fat-tree", {"k": 4}))
        reported["deploy_rules"] = deployment.rules.count()

        net = build_sdt_network(controller.cluster, deployment)
        host_map = deployment.projection.host_map
        tx = RoceTransport(net, host_map["h0"])
        RoceTransport(net, host_map["h15"])
        tx.send(host_map["h15"], 256 * 1024)
        end = net.sim.run()
        controller.monitor.poll(0.0, deployment.projection)
        controller.monitor.poll(max(end, 1e-9), deployment.projection)

        deployment, reconf_time = controller.reconfigure(
            TopologyConfig("torus2d", {"x": 4, "y": 4})
        )
        reported["reconf_time"] = reconf_time
        reported["reconf_rules"] = deployment.rules.count()

        reported["repair_time"] = controller.fail_link(
            deployment, deployment.topology.switch_links[0].index
        )
    finally:
        uninstall_tracer()
        set_registry(old_registry)

    artifact_dir = os.environ.get("SDT_TRACE_ARTIFACT_DIR")
    out_dir = tmp_path if not artifact_dir else artifact_dir
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(str(out_dir), "telemetry_e2e.jsonl")
    assert tracer.dump(path) > 0
    return load_trace(path), reported


def _span_index(records):
    return {r["id"]: r for r in records if r["type"] == "span"}


def _in_subtree(spans, span_id, root_id) -> bool:
    while span_id is not None:
        if span_id == root_id:
            return True
        span_id = spans[span_id]["parent"]
    return False


def _commits_under(records, root_id):
    spans = _span_index(records)
    return [r for r in spans.values() if r["name"] == "txn.commit"
            and _in_subtree(spans, r["id"], root_id)]


def _span(records, name):
    return [r for r in records if r["type"] == "span" and r["name"] == name][0]


def test_deploy_rules_from_trace(traced_run):
    records, reported = traced_run
    deploy = _span(records, "controller.deploy")
    assert deploy["attrs"]["rules"] == reported["deploy_rules"]
    commits = _commits_under(records, deploy["id"])
    assert len(commits) == 1
    assert commits[0]["attrs"]["flow_mods"] == reported["deploy_rules"]
    # one history: the trace holds no per-message records
    assert not [r for r in records if r["name"].startswith("ctrl.")]
    events = [r for r in records if r["type"] == "event"]
    assert len(events) < reported["deploy_rules"]


def test_reconfigure_duration_from_trace(traced_run):
    records, reported = traced_run
    commits = _commits_under(records, _span(records, "controller.reconfigure")["id"])
    assert len(commits) == 1
    attrs = commits[0]["attrs"]
    # exact equality, not approx: the commit's per-switch times are the
    # controller's own arithmetic, round-tripped through JSON
    assert max(attrs["switch_times"].values()) == reported["reconf_time"]
    assert attrs["modeled_time"] == reported["reconf_time"]
    # and the new generation's rules are all installed by the swap commit
    assert attrs["flow_mods"] == reported["reconf_rules"]


def test_every_commit_time_is_recomputable(traced_run):
    records, reported = traced_run
    commits = [r for r in _span_index(records).values()
               if r["name"] == "txn.commit" and r["status"] == "ok"]
    assert len(commits) >= 3  # deploy, reconfigure, fail_link reroute
    for commit in commits:
        attrs = commit["attrs"]
        tag = f"commit {commit['id']} ({attrs['label']})"
        assert len(attrs["switch_times"]) == attrs["switches"], tag
        assert max(attrs["switch_times"].values()) == attrs["modeled_time"], tag
    repair = _commits_under(records, _span(records, "controller.fail_link")["id"])
    assert [c["attrs"]["modeled_time"] for c in repair] == [reported["repair_time"]]


def test_trace_spans_well_formed(traced_run):
    records, _ = traced_run
    spans = _span_index(records)
    for rec in spans.values():
        assert rec["status"] == "ok"
        assert rec["t1"] >= rec["t0"]
        if rec["parent"] is not None:
            assert rec["parent"] in spans
    for rec in records:
        if rec["type"] == "event" and rec["span"] is not None:
            assert rec["span"] in spans
