"""Tenant sessions: quotas, cookie namespaces, ledgers."""

import pytest

from repro.tenancy import TENANT_COOKIE_SPACE, TenantQuota, TenantSession
from repro.util.errors import ConfigurationError


def _session(index=1, **quota):
    defaults = {"host_ports": 4, "tcam_share": 100}
    defaults.update(quota)
    return TenantSession(
        tenant_id="t", index=index, quota=TenantQuota(**defaults), lease=()
    )


def test_quota_validation():
    with pytest.raises(ConfigurationError):
        TenantQuota(host_ports=0, tcam_share=10)
    with pytest.raises(ConfigurationError):
        TenantQuota(host_ports=1, tcam_share=0)
    with pytest.raises(ConfigurationError):
        TenantQuota(host_ports=1, tcam_share=1, optical_circuits=-1)


def test_quota_from_dict_accepts_the_json_form():
    assert TenantQuota.from_dict(
        {"host_ports": 4, "tcam_share": 100}
    ) == TenantQuota(host_ports=4, tcam_share=100)
    assert TenantQuota.from_dict(
        {"host_ports": 4, "tcam_share": 100, "optical_circuits": 2}
    ).optical_circuits == 2


@pytest.mark.parametrize("data", [
    None,
    "4/100",
    {"host_ports": 4},
    {"host_ports": "many", "tcam_share": 100},
    {"host_ports": True, "tcam_share": 100},
    {"host_ports": 4, "tcam_share": 100, "optical_circuits": None},
])
def test_quota_from_dict_rejects_malformed_input(data):
    with pytest.raises(ConfigurationError, match="quota"):
        TenantQuota.from_dict(data)


def test_quota_from_dict_refuses_an_unknown_key():
    with pytest.raises(ConfigurationError, match="unknown quota keys.*tcam"):
        TenantQuota.from_dict({"host_ports": 4, "tcam_share": 100, "tcam": 9})


def test_scenario_file_with_a_malformed_quota_is_a_configuration_error(
    tmp_path,
):
    import json

    from repro.tenancy import Scenario

    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"tenants": [{
        "id": "alice",
        "quota": {"host_ports": "many", "tcam_share": 100},
        "topology": {"kind": "chain",
                     "params": {"num_switches": 2, "hosts_per_switch": 1}},
    }]}))
    with pytest.raises(ConfigurationError, match="host_ports"):
        Scenario.from_file(path)


def test_cookie_namespace_block():
    s = _session(index=3)
    assert s.cookie_base == 3 * TENANT_COOKIE_SPACE
    assert s.owns_cookie(s.cookie_base)
    assert s.owns_cookie(s.cookie_base + TENANT_COOKIE_SPACE - 1)
    assert not s.owns_cookie(s.cookie_base - 1)
    assert not s.owns_cookie(s.cookie_base + TENANT_COOKIE_SPACE)


def test_cookies_mint_monotonically_and_never_repeat():
    s = _session(index=2)
    minted = [s.next_cookie() for _ in range(100)]
    assert len(set(minted)) == 100
    assert minted == sorted(minted)
    assert all(s.owns_cookie(c) for c in minted)


def test_cookie_namespace_exhaustion():
    s = _session(index=1)
    s._next_seq = TENANT_COOKIE_SPACE
    with pytest.raises(ConfigurationError, match="exhausted"):
        s.next_cookie()


def test_adjacent_namespaces_disjoint():
    a, b = _session(index=1), _session(index=2)
    mine = {a.next_cookie() for _ in range(10)}
    theirs = {b.next_cookie() for _ in range(10)}
    assert not mine & theirs


def test_inactive_session_refuses_work():
    s = _session()
    s.state = "evicted"
    with pytest.raises(ConfigurationError, match="evicted"):
        s.check_active()


def test_snapshot_is_json_safe():
    import json

    s = _session(index=1)
    json.dumps(s.snapshot())  # must not raise
    snap = s.snapshot()
    assert snap["tenant"] == "t"
    assert snap["cookie_base"] == TENANT_COOKIE_SPACE
    assert snap["deployments"] == []
