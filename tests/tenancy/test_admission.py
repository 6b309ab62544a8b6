"""Admission control: quota math and the zero-mutation-on-reject
guarantee (the paper's checking function, hardened for tenants)."""

import pytest

from repro.tenancy import TenantQuota
from repro.util.errors import AdmissionError
from tests.tenancy.conftest import CHAIN4, FATTREE, TORUS, run_op


def _tables(cluster):
    return {name: sw.entry_keys() for name, sw in cluster.switches.items()}


def test_admitted_deploy_installs(service, three_tenants):
    dep = run_op(service, "deploy", "alice", config=FATTREE)
    assert dep.cookie == three_tenants[0].cookie_base
    assert sum(
        sw.num_entries for sw in service.cluster.switches.values()
    ) == sum(dep.rules.per_switch_counts().values())


def test_over_host_quota_rejected_bit_identical(service, three_tenants):
    run_op(service, "deploy", "carol", config=CHAIN4)
    before = _tables(service.cluster)
    with pytest.raises(AdmissionError) as e:
        run_op(service, "deploy", "carol", config=FATTREE)  # 16 hosts > 9-port quota
    assert e.value.problems
    assert _tables(service.cluster) == before


def test_over_tcam_share_rejected_bit_identical(service):
    tiny = service.open_session(
        "tiny", TenantQuota(host_ports=16, tcam_share=10)
    )
    before = _tables(service.cluster)
    with pytest.raises(AdmissionError) as e:
        run_op(service, "deploy", "tiny", config=TORUS)
    assert any("quota is 10" in p for p in e.value.problems)
    assert _tables(service.cluster) == before
    assert tiny.deployments == {}


def test_infeasible_projection_is_rejection_not_crash(service, three_tenants):
    """A topology the tenant's lease cannot host rejects cleanly."""
    before = _tables(service.cluster)
    with pytest.raises(AdmissionError):
        # bob's 12-port lease spreads 4/switch; fat-tree k=4 demands
        # 8 hosts on one switch
        run_op(service, "deploy", "bob", config=FATTREE)
    assert _tables(service.cluster) == before


def test_reject_leaves_other_tenants_running(service, three_tenants):
    dep = run_op(service, "deploy", "alice", config=FATTREE)
    before = _tables(service.cluster)
    with pytest.raises(AdmissionError):
        run_op(service, "deploy", "carol", config=FATTREE)
    assert _tables(service.cluster) == before
    assert three_tenants[0].deployments == {dep.name: dep}


def test_swap_admission_charges_net_usage(service, three_tenants):
    """A reconfigure is charged for the *delta*: the old generation's
    host ports and TCAM count as freed."""
    run_op(service, "deploy", "bob", config=TORUS)  # uses all 9 of... bob has 12
    # swapping to CHAIN4 (4 hosts) must pass even though 9 + 4 > 12
    dep = run_op(
        service, "reconfigure", "bob", name="torus2d-3x3", config=CHAIN4
    )
    assert dep.name == "chain-4"
    assert list(three_tenants[1].deployments) == ["chain-4"]


def test_lease_shortfall_rejects_session(service, three_tenants):
    with pytest.raises(AdmissionError, match="host ports"):
        service.open_session(
            "dave", TenantQuota(host_ports=10_000, tcam_share=100)
        )
    assert "dave" not in service.sessions
