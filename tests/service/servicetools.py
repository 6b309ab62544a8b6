"""Shared building blocks for the service suite: a small multi-tenant
pool and per-tenant config pairs (a chain-3 and a chain-4 under custom
names, so tenants never collide on deployment names)."""

from __future__ import annotations

from repro.core.controller.config import TopologyConfig
from repro.hardware.spec import SwitchSpec
from repro.tenancy import TenantQuota, build_pool_for_tenants
from repro.util.units import gbps

TENANTS = ("alice", "bob", "carol")

#: 8 host ports covers a make-before-break chain-3 -> chain-4 swap
#: (both topologies' hosts are held transiently against the lease)
QUOTA = TenantQuota(host_ports=8, tcam_share=500)

SPEC = SwitchSpec(
    model="churn-switch",
    num_ports=256,
    port_rate=gbps(10),
    flow_table_capacity=4096,
)

CHAIN3 = TopologyConfig("chain", {"num_switches": 3, "hosts_per_switch": 1})
CHAIN4 = TopologyConfig("chain", {"num_switches": 4, "hosts_per_switch": 1})


#: per-tenant (chain-3, chain-4) pair the reconfigures toggle between
CONFIGS = {
    t: (
        TopologyConfig.from_topology(CHAIN3.build(), name=f"{t}-a"),
        TopologyConfig.from_topology(CHAIN4.build(), name=f"{t}-b"),
    )
    for t in TENANTS
}


def service_pool():
    """Pool with room for every tenant's worst case plus spares."""
    return build_pool_for_tenants(
        [CHAIN3.build() for _ in TENANTS]
        + [CHAIN4.build() for _ in TENANTS],
        3,
        SPEC,
        spare_hosts=8,
    )
