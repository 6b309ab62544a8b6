"""Scenario files: strict parsing, and the shipped example serves.

Every parser of the file refuses a key it does not know, naming it —
a misspelled ``spare_host`` must not quietly become ``spare_hosts=0``.
"""

from __future__ import annotations

import asyncio
import copy
from pathlib import Path

import pytest

from repro.service.app import ControlPlaneService
from repro.tenancy import Scenario, TenantSpec, serve_scenario
from repro.util.errors import ConfigurationError

EXAMPLE = Path(__file__).resolve().parents[2] / "examples" / "multitenant.json"

BASE = {
    "switches": 3,
    "spec": {"num_ports": 256, "flow_table_capacity": 4096},
    "spare_hosts": 4,
    "tenants": [
        {"id": "alice",
         "quota": {"host_ports": 8, "tcam_share": 1000},
         "topology": {"kind": "chain",
                      "params": {"num_switches": 3, "hosts_per_switch": 1}}},
    ],
}


def _with(edit) -> dict:
    data = copy.deepcopy(BASE)
    edit(data)
    return data


def test_base_scenario_parses():
    scenario = Scenario.from_dict(BASE)
    assert scenario.spare_hosts == 4
    assert scenario.spec.num_ports == 256


@pytest.mark.parametrize("key", ["spare_host", "max_workers"])
def test_scenario_refuses_an_unknown_top_level_key(key):
    data = _with(lambda d: d.update({key: 2}))
    with pytest.raises(ConfigurationError, match=f"unknown scenario keys.*{key}"):
        Scenario.from_dict(data)


def test_scenario_refuses_an_unknown_spec_key():
    data = _with(lambda d: d["spec"].update({"num_port": 64}))
    with pytest.raises(ConfigurationError, match="unknown scenario spec keys.*num_port"):
        Scenario.from_dict(data)


def test_tenant_spec_refuses_an_unknown_key():
    tenant = dict(BASE["tenants"][0], extra=1)
    with pytest.raises(ConfigurationError, match="unknown tenant keys.*extra"):
        TenantSpec.from_dict(tenant)


def test_shipped_example_parses_and_serves():
    scenario = Scenario.from_file(EXAMPLE)
    assert [t.tenant_id for t in scenario.tenants] == [
        "hpc-lab", "torus-team", "df-group",
    ]

    async def main() -> dict:
        service = ControlPlaneService(scenario.pool())
        await service.start()
        try:
            return await serve_scenario(service, scenario)
        finally:
            await service.stop()

    report = asyncio.run(main())
    assert "error" not in report
    assert report["rejected"] == []
    assert sorted(report["tenants"]) == ["df-group", "hpc-lab", "torus-team"]
    assert all(t["rules_installed"] > 0 for t in report["tenants"].values())
