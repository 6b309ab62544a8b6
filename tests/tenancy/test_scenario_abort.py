"""Regression: a mid-scenario error must not eat the partial report.

``repro serve`` used to exit nonzero on a non-admission error without
flushing the JSON run report — losing the record of everything that
*did* deploy. A partial run is now simply a report with an ``error``
key: :func:`serve_scenario` records the error next to the work that
did deploy, and the CLI flushes that report exactly like a successful
one before exiting 2.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.service.app import ControlPlaneService
from repro.tenancy import Scenario, serve_scenario
from repro.tenancy.service import TestbedService
from repro.util.errors import ReproError


def _scenario() -> Scenario:
    return Scenario.from_dict({
        "switches": 3,
        "spec": {"num_ports": 256, "flow_table_capacity": 4096},
        "spare_hosts": 4,
        "tenants": [
            {"id": "alice",
             "quota": {"host_ports": 8, "tcam_share": 1000},
             "topology": {"kind": "chain",
                          "params": {"num_switches": 3,
                                     "hosts_per_switch": 1}}},
            {"id": "bob",
             "quota": {"host_ports": 8, "tcam_share": 1000},
             "topology": {"kind": "chain",
                          "params": {"num_switches": 4,
                                     "hosts_per_switch": 1}}},
        ],
    })


@pytest.fixture()
def bob_deploy_blows_up(monkeypatch):
    real = TestbedService._do_deploy

    def failing(self, tenant_id, config):
        if tenant_id == "bob":
            raise ReproError("injected projection failure")
        return real(self, tenant_id, config)

    monkeypatch.setattr(TestbedService, "_do_deploy", failing)


def test_abort_carries_the_partial_run(bob_deploy_blows_up):
    scenario = _scenario()

    async def main() -> dict:
        service = ControlPlaneService(scenario.pool())
        await service.start()
        try:
            return await serve_scenario(service, scenario)
        finally:
            await service.stop()

    report = asyncio.run(main())
    # alice's completed work survived the abort
    assert report["tenants"]["alice"]["rules_installed"] > 0
    assert "bob" not in report["tenants"]
    assert "injected projection failure" in report["error"]
    # the report closes with a stable service status, same as a
    # successful run's: both sessions admitted, nothing left queued
    assert set(report["status"]["tenants"]) == {"alice", "bob"}
    assert report["status"]["queue_depths"] == {}
    assert json.dumps(report)  # still JSON-serializable


def test_cli_flushes_report_and_exits_2(
    bob_deploy_blows_up, tmp_path, capsys
):
    from repro.cli import main

    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({
        "switches": 3,
        "spec": {"num_ports": 256, "flow_table_capacity": 4096},
        "spare_hosts": 4,
        "tenants": [
            {"id": "alice",
             "quota": {"host_ports": 8, "tcam_share": 1000},
             "topology": {"kind": "chain",
                          "params": {"num_switches": 3,
                                     "hosts_per_switch": 1}}},
            {"id": "bob",
             "quota": {"host_ports": 8, "tcam_share": 1000},
             "topology": {"kind": "chain",
                          "params": {"num_switches": 4,
                                     "hosts_per_switch": 1}}},
        ],
    }))
    report_path = tmp_path / "report.json"
    rc = main([
        "serve", str(scenario_path), "--json", str(report_path)
    ])
    assert rc == 2
    # the partial report landed on disk despite the nonzero exit
    report = json.loads(report_path.read_text())
    assert report["tenants"]["alice"]["rules_installed"] > 0
    assert "injected projection failure" in report["error"]
    out = capsys.readouterr().out
    assert "run aborted" in out
    assert "report written" in out


def test_cli_flushes_report_on_admission_reject(tmp_path, capsys):
    """The rejected-tenant exit path (rc 1) must flush the report too."""
    from repro.cli import main

    scenario_path = tmp_path / "over.json"
    scenario_path.write_text(json.dumps({
        "switches": 3,
        "spec": {"num_ports": 256, "flow_table_capacity": 4096},
        "tenants": [
            {"id": "greedy",
             "quota": {"host_ports": 4, "tcam_share": 2000},
             "topology": {"kind": "fat-tree", "params": {"k": 4}}},
        ],
    }))
    report_path = tmp_path / "report.json"
    rc = main([
        "serve", str(scenario_path), "--json", str(report_path)
    ])
    assert rc == 1
    report = json.loads(report_path.read_text())
    assert report["rejected"][0]["tenant"] == "greedy"
    assert "REJECTED" in capsys.readouterr().out
