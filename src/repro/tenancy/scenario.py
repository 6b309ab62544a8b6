"""Multi-tenant scenario files: declarative service runs for `repro serve`.

A scenario JSON describes one shared pool and the tenants to admit:

.. code-block:: json

    {
      "switches": 4,
      "spec": {"num_ports": 256, "flow_table_capacity": 4096},
      "spare_hosts": 0,
      "max_workers": 2,
      "tenants": [
        {
          "id": "alice",
          "quota": {"host_ports": 16, "tcam_share": 1200},
          "topology": {"kind": "fat-tree", "params": {"k": 4}}
        }
      ]
    }

``run_scenario`` wires a pool large enough to hold every tenant's
topology *concurrently* (summed demand, not §IV-B's one-at-a-time
max), opens the sessions in file order,
submits every deploy through the scheduler, and returns the service
plus a JSON-safe run report — the driver behind ``repro serve``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.controller.config import TopologyConfig
from repro.core.projection.linkproj import plan_inter_switch_reservation
from repro.hardware.cluster import PhysicalCluster
from repro.hardware.spec import SwitchSpec
from repro.tenancy.service import TestbedService
from repro.tenancy.session import TenantQuota
from repro.topology.graph import Topology
from repro.util.errors import (
    AdmissionError,
    CapacityError,
    ConfigurationError,
    ReproError,
)
from repro.util.units import gbps


@dataclass
class TenantSpec:
    """One tenant's declaration in a scenario file."""

    tenant_id: str
    quota: TenantQuota
    topology: TopologyConfig

    @classmethod
    def from_dict(cls, data: dict) -> "TenantSpec":
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
    max_workers: int = 2
    seed: int = 0

    @classmethod
    def from_dict(cls, data: dict) -> "Scenario":
        spec_data = dict(data.get("spec", {}))
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
            max_workers=int(data.get("max_workers", 2)),
            seed=int(data.get("seed", 0)),
        )

    @classmethod
    def from_file(cls, path: str | Path) -> "Scenario":
        return cls.from_dict(json.loads(Path(path).read_text()))


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
    total_hosts = 0
    total_inter = 0
    total_self = 0
    for topo in topologies:
        budget = plan_inter_switch_reservation(
            [topo], num_switches, seed=seed
        )
        total_hosts += budget["hosts_per_switch"]
        total_inter += budget["inter_links_per_pair"]
        total_self += budget["self_links_per_switch"]
    hosts_per_switch = total_hosts + spare_hosts
    inter_ports = total_inter * (num_switches - 1)
    needed = hosts_per_switch + inter_ports + 2 * total_self
    if needed > spec.num_ports:
        raise CapacityError(
            f"{spec.model}: concurrent tenants need {needed} ports per "
            f"switch ({hosts_per_switch} host + {inter_ports} "
            f"inter-switch + {2 * total_self} self-link) but it has "
            f"{spec.num_ports}; add switches or use a larger switch"
        )
    return PhysicalCluster.build(
        num_switches,
        spec,
        hosts_per_switch=hosts_per_switch,
        inter_links_per_pair=total_inter,
    )


@dataclass
class ScenarioRun:
    """Outcome of one scenario execution."""

    service: TestbedService
    report: dict = field(default_factory=dict)


class ScenarioAborted(ReproError):
    """A scenario died mid-run on a non-admission error.

    Admission rejections are answers and live in the report; anything
    else (a bad per-tenant config, a capacity blow-up during
    projection) aborts the run — but the work already done is not
    lost: the exception carries the partial :class:`ScenarioRun` so
    the driver can flush the report and shut the service down on
    *every* exit path, not just the happy one.
    """

    def __init__(self, message: str, *, run: ScenarioRun) -> None:
        super().__init__(message)
        self.run = run


def run_scenario(scenario: Scenario) -> ScenarioRun:
    """Build the pool, admit every tenant, deploy every topology.

    Admission rejections are recorded in the report (per the paper's
    checking function, a refusal is an answer, not a crash); any other
    mid-scenario error raises :class:`ScenarioAborted` carrying the
    partial run. Errors *before* the service exists (an unbuildable
    pool) propagate as themselves — there is no partial state to save.
    """
    topologies = [t.topology.build() for t in scenario.tenants]
    cluster = build_pool_for_tenants(
        topologies,
        scenario.switches,
        scenario.spec,
        seed=scenario.seed,
        spare_hosts=scenario.spare_hosts,
    )
    service = TestbedService(cluster, max_workers=scenario.max_workers)
    report: dict = {"tenants": {}, "rejected": []}
    run = ScenarioRun(service=service, report=report)
    futures = []
    try:
        for tenant in scenario.tenants:
            try:
                service.open_session(tenant.tenant_id, tenant.quota)
            except AdmissionError as exc:
                report["rejected"].append(
                    {"tenant": tenant.tenant_id, "stage": "session",
                     "problems": exc.problems}
                )
                continue
            futures.append(
                (tenant,
                 service.submit_deploy(tenant.tenant_id, tenant.topology))
            )
        for tenant, future in futures:
            try:
                deployment = future.result()
            except AdmissionError as exc:
                report["rejected"].append(
                    {"tenant": tenant.tenant_id, "stage": "deploy",
                     "problems": exc.problems}
                )
            else:
                report["tenants"][tenant.tenant_id] = {
                    "deployment": deployment.name,
                    "rules_installed": sum(
                        deployment.rules.per_switch_counts().values()
                    ),
                    "install_time": deployment.deployment_time,
                }
    except ReproError as exc:
        # drain whatever is still queued so the status below is stable
        for _tenant, future in futures:
            if not future.done():
                try:
                    future.result()
                except ReproError:
                    pass
        report["error"] = str(exc)
        report["status"] = service.status()
        raise ScenarioAborted(
            f"scenario aborted mid-run: {exc}", run=run
        ) from exc
    report["status"] = service.status()
    return run
