"""Multi-tenant scenario files: declarative service runs for `repro serve`.

A scenario JSON describes one shared pool and the tenants to admit:

.. code-block:: json

    {
      "switches": 4,
      "spec": {"num_ports": 256, "flow_table_capacity": 4096},
      "spare_hosts": 0,
      "tenants": [
        {
          "id": "alice",
          "quota": {"host_ports": 16, "tcam_share": 1200},
          "topology": {"kind": "fat-tree", "params": {"k": 4}}
        }
      ]
    }

:meth:`Scenario.pool` wires a pool large enough to hold every tenant's
topology *concurrently* (summed demand, not §IV-B's one-at-a-time
max). :func:`serve_scenario` is a client of a running
:class:`~repro.service.app.ControlPlaneService` on that pool: it opens
the sessions in file order, submits every deploy, and returns a
JSON-safe run report — the driver behind ``repro serve`` and
``repro status``.

Every object in the file is parsed strictly: a key the parser does not
know (a typo such as ``spare_host``) is a :class:`ConfigurationError`
that names it, never a silent default.
"""

from __future__ import annotations

import asyncio
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.core.autobuild import _wire_for_budget
from repro.core.controller.config import TopologyConfig
from repro.core.projection.linkproj import plan_inter_switch_reservation
from repro.hardware.cluster import PhysicalCluster
from repro.hardware.spec import SwitchSpec
from repro.tenancy.session import TenantQuota
from repro.topology.graph import Topology
from repro.util.errors import (
    AdmissionError,
    ConfigurationError,
    ReproError,
)
from repro.util.units import gbps

if TYPE_CHECKING:  # the service package is built on this one
    from repro.service.app import ControlPlaneService


@dataclass
class TenantSpec:
    """One tenant's declaration in a scenario file."""

    tenant_id: str
    quota: TenantQuota
    topology: TopologyConfig

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
        _check_keys(data, {"id", "quota", "topology"}, "tenant")
        try:
            return cls(
                tenant_id=str(data["id"]),
                quota=TenantQuota.from_dict(data["quota"]),
                topology=TopologyConfig.from_dict(data["topology"]),
            )
        except KeyError as missing:
            raise ConfigurationError(
                f"tenant entry missing field {missing}"
            ) from None


@dataclass
class Scenario:
    """A parsed multi-tenant scenario."""

    switches: int
    spec: SwitchSpec
    tenants: list[TenantSpec]
    spare_hosts: int = 0
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        _check_keys(
            data, {"switches", "spec", "spare_hosts", "seed", "tenants"},
            "scenario",
        )
        spec_data = dict(data.get("spec", {}))
        _check_keys(
            spec_data,
            {"model", "num_ports", "port_rate_gbps", "flow_table_capacity"},
            "scenario spec",
        )
        spec = SwitchSpec(
            model=spec_data.get("model", "scenario-switch"),
            num_ports=int(spec_data.get("num_ports", 256)),
            port_rate=gbps(float(spec_data.get("port_rate_gbps", 10))),
            flow_table_capacity=int(
                spec_data.get("flow_table_capacity", 4096)
            ),
        )
        tenants = [TenantSpec.from_dict(t) for t in data.get("tenants", [])]
        if not tenants:
            raise ConfigurationError("scenario declares no tenants")
        ids = [t.tenant_id for t in tenants]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate tenant ids in {ids}")
        return cls(
            switches=int(data.get("switches", 3)),
            spec=spec,
            tenants=tenants,
            spare_hosts=int(data.get("spare_hosts", 0)),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def pool(self) -> PhysicalCluster:
        """The shared pool every tenant's topology fits into at once."""
        return build_pool_for_tenants(
            [t.topology.build() for t in self.tenants],
            self.switches,
            self.spec,
            seed=self.seed,
            spare_hosts=self.spare_hosts,
        )


def build_pool_for_tenants(
    topologies: list[Topology],
    num_switches: int,
    spec: SwitchSpec,
    *,
    seed: int = 0,
    spare_hosts: int = 0,
) -> PhysicalCluster:
    """Wire a pool that holds every tenant's topology *concurrently*.

    :func:`~repro.core.autobuild.build_cluster_for` implements §IV-B's
    one-at-a-time rule — reserve the **max** per-pair/per-switch demand
    across planned topologies. Concurrent tenants all hold their wiring
    at once, so a shared pool must reserve the **sum** instead: each
    topology is partitioned separately and its host-port and
    inter-switch-link demands are added up (self-links come out of the
    leftover free ports, as usual).
    """
    budgets = [
        plan_inter_switch_reservation([topo], num_switches, seed=seed)
        for topo in topologies
    ]
    summed = {
        key: sum(budget[key] for budget in budgets)
        for key in ("hosts_per_switch", "inter_links_per_pair",
                    "self_links_per_switch")
    }
    return _wire_for_budget(
        summed, num_switches, spec, spare_hosts,
        needs="concurrent tenants need", has="it has",
    )


def _check_keys(data: dict, known: set[str], what: str) -> None:
    unknown = set(data) - known
    if unknown:
        raise ConfigurationError(f"unknown {what} keys: {sorted(unknown)}")


async def serve_scenario(service: ControlPlaneService, scenario: Scenario) -> dict:
    """Admit every tenant and deploy every topology through ``service``.

    Sessions open in file order; the deploys are then submitted as one
    burst and awaited together. Admission rejections are recorded under
    ``rejected`` (per the paper's checking function, a refusal is an
    answer, not a crash); any other error ends the run and is recorded
    under ``error``, after every queued deploy has finished, so the
    ``status`` the report closes with is stable either way.
    """
    report: dict = {"tenants": {}, "rejected": []}

    def reject(tenant: TenantSpec, stage: str, exc: AdmissionError) -> None:
        report["rejected"].append(
            {"tenant": tenant.tenant_id, "stage": stage, "problems": exc.problems}
        )

    try:
        admitted = []
        for tenant in scenario.tenants:
            try:
                await service.open_session(tenant.tenant_id, tenant.quota)
            except AdmissionError as exc:
                reject(tenant, "session", exc)
            else:
                admitted.append(tenant)
        outcomes = await asyncio.gather(
            *(service.submit("deploy", t.tenant_id, config=t.topology)
              for t in admitted),
            return_exceptions=True,
        )
        for tenant, outcome in zip(admitted, outcomes):
            if isinstance(outcome, AdmissionError):
                reject(tenant, "deploy", outcome)
            elif isinstance(outcome, BaseException):
                raise outcome  # a ReproError ends the run below
            else:
                report["tenants"][tenant.tenant_id] = {
                    "deployment": outcome.name,
                    "rules_installed": outcome.rules.count(),
                    "install_time": outcome.deployment_time,
                }
    except ReproError as exc:
        report["error"] = str(exc)
    report["status"] = service.testbed.status()
    return report
