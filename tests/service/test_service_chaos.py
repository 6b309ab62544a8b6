"""Satellite chaos: kill the service mid-request, restart, prove no
lease or cookie block is lost or double-granted.

Mirrors ``tests/integration/test_chaos_recovery.py``: a
:class:`_KillSwitch` makes a control-channel send raise a
``BaseException`` on the Nth message, simulating process death between
a journal intent and its commit record. The service layer adds its own
durability obligations on top of the controller's:

* the tenant **sessions** (leases, cookie-block indices, per-session
  sequence counters) recorded by the last snapshot must come back
  bit-identical — minus live deployment objects, which recovery
  deliberately does not rebuild (DESIGN.md §7);
* the service's **admission index** must resume past every pre-crash
  session, so a tenant admitted after the restart can never receive a
  cookie block or lease that pre-crash rules already use;
* the **switch tables** must equal the last committed state exactly —
  never the hybrid the kill left on the live cluster.

A kill that lands mid-*evict* additionally must not lose the lease:
the snapshot predates the evict, so the tenant comes back ACTIVE and
fully leased, and the evict can simply be retried.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.core.controller.config import TopologyConfig
from repro.recovery import uninstall_journal
from repro.recovery.journal import JOURNAL_NAME
from repro.service.app import ControlPlaneService
from repro.util.errors import ConfigurationError

from tests.integration.test_chaos_recovery import _Killed, _KillSwitch
from tests.recovery.conftest import installed_state
from tests.service.servicetools import CONFIGS, QUOTA, service_pool


def _session_states(service: ControlPlaneService) -> dict:
    return {
        t: s.to_state() for t, s in service.testbed.sessions.items()
    }


def _minus_deployments(states: dict) -> dict:
    return {
        t: {k: v for k, v in s.items() if k != "deployments"}
        for t, s in states.items()
    }


async def _boot(state_dir) -> ControlPlaneService:
    service = ControlPlaneService(
        service_pool(), state_dir=str(state_dir),
        snapshot_every=1,
    )
    await service.start()
    return service


async def _crash(service: ControlPlaneService) -> None:
    """Abandon the service the way a dead process would: workers stop,
    but no final snapshot is written and no teardown runs."""
    await service.scheduler.shutdown()
    uninstall_journal()


#: alice's edits: chain-3 -> chain-4 commits as a delta; a chain-3 whose
#: switch and host names trade places cannot be diffed (no node keeps
#: its kind), so that edit falls back to a cold generation swap
EDITS = {
    "delta": (CONFIGS["alice"][1], "reconfigure-incremental alice-b"),
    "cold": (
        TopologyConfig("custom", {
            "name": "alice-c",
            "switches": ["h0", "h1", "h2"],
            "hosts": ["s0", "s1", "s2"],
            "links": [["h0", "h1"], ["h1", "h2"], ["h0", "s0"],
                      ["h1", "s1"], ["h2", "s2"]],
        }),
        "reconfigure alice-c",
    ),
}


def _last_intent_label(state_dir) -> str:
    records = [
        json.loads(line)
        for line in (state_dir / JOURNAL_NAME).read_text().splitlines()
    ]
    return [r for r in records if r["type"] == "intent"][-1]["label"]


@pytest.mark.parametrize("edit, kill_after", [
    *(pytest.param("delta", n, id=str(n)) for n in (0, 1, 4, 9)),
    *(pytest.param("cold", n, id=f"cold-{n}") for n in (0, 4, 9)),
])
def test_kill_mid_reconfigure_recovers_committed_state(
    tmp_path, edit, kill_after
):
    state_dir = tmp_path / "state"
    config, label = EDITS[edit]

    async def phase_crash():
        service = await _boot(state_dir)
        await service.open_session("alice", QUOTA)
        await service.open_session("bob", QUOTA)
        await service.submit("deploy", "alice", config=CONFIGS["alice"][0])
        await service.submit("deploy", "bob", config=CONFIGS["bob"][0])
        committed = {
            "tables": installed_state(service.testbed.cluster),
            "sessions": _session_states(service),
            "next_index": service.testbed._next_index,
            "next_cookie": service.testbed.controller._next_cookie,
            "next_metadata": service.testbed.controller._next_metadata,
        }
        switch = _KillSwitch(service.testbed.cluster, kill_after)
        with pytest.raises(_Killed):
            await service.submit(
                "reconfigure", "alice", name="alice-a", config=config,
            )
        switch.disarm()
        # the kill landed inside the commit of the edit path under test
        assert _last_intent_label(state_dir) == label
        # the kill left the live cluster a hybrid; prove the hybrid is
        # NOT what the restart comes back to
        await _crash(service)
        return committed

    committed = asyncio.run(phase_crash())

    async def phase_restart():
        service = await _boot(state_dir)
        try:
            assert service.recovered is not None
            # switch tables: bit-identical to the last committed state
            assert (
                installed_state(service.testbed.cluster)
                == committed["tables"]
            )
            # sessions: leases, cookie blocks, sequence counters intact
            # (deployment objects are not rebuilt — DESIGN.md §7)
            recovered = _session_states(service)
            assert _minus_deployments(recovered) == _minus_deployments(
                committed["sessions"]
            )
            for state in recovered.values():
                assert state["deployments"] == []
            # allocation counters: nothing lost, nothing re-issued
            assert (
                service.testbed.controller._next_cookie
                == committed["next_cookie"]
            )
            assert (
                service.testbed.controller._next_metadata
                == committed["next_metadata"]
            )
            assert service.testbed._next_index == committed["next_index"]

            # no double grant: a fresh admission gets a strictly newer
            # index and a lease disjoint from every recovered lease,
            # and its deploy passes the isolation verifier
            await service.open_session("carol", QUOTA)
            carol = service.testbed.sessions["carol"]
            assert carol.index >= committed["next_index"]
            carol_lease = set(
                service.testbed.sessions["carol"].lease
            )
            for tenant in ("alice", "bob"):
                held = set(service.testbed.sessions[tenant].lease)
                assert not carol_lease & held
            await service.submit(
                "deploy", "carol", config=CONFIGS["carol"][0]
            )
        finally:
            await service.stop()

    asyncio.run(phase_restart())


@pytest.mark.parametrize("kill_after", [0, 2])
def test_kill_mid_evict_does_not_lose_the_lease(tmp_path, kill_after):
    state_dir = tmp_path / "state"

    async def phase_crash():
        service = await _boot(state_dir)
        await service.open_session("alice", QUOTA)
        await service.submit("deploy", "alice", config=CONFIGS["alice"][0])
        lease = tuple(service.testbed.sessions["alice"].lease)
        switch = _KillSwitch(service.testbed.cluster, kill_after)
        with pytest.raises(_Killed):
            await service.submit("evict", "alice")
        switch.disarm()
        await _crash(service)
        return lease

    lease = asyncio.run(phase_crash())
    assert lease  # the deploy really held ports

    async def phase_restart():
        service = await _boot(state_dir)
        try:
            session = service.testbed.sessions["alice"]
            # the snapshot predates the evict: the tenant is still
            # ACTIVE and holds its full lease — nothing leaked out of
            # the accounting even though teardown died half-way
            assert session.state == "active"
            assert tuple(session.lease) == lease
            # the evict retries cleanly on the restarted service
            await service.end_session("alice", mode="evict")
            assert service.testbed.sessions["alice"].state == "evicted"
            assert service.testbed.sessions["alice"].lease == ()
            # ... and the tenant can be re-admitted afterwards
            await service.open_session("alice", QUOTA)
        finally:
            await service.stop()

    asyncio.run(phase_restart())


def test_killed_op_does_not_take_down_the_service(tmp_path):
    """The in-process simulation detail the suite depends on: a
    BaseException escaping an op lands on that op's future, while the
    scheduler and every other tenant keep working."""

    async def main():
        service = await _boot(tmp_path / "state")
        await service.open_session("alice", QUOTA)
        await service.open_session("bob", QUOTA)
        switch = _KillSwitch(service.testbed.cluster, 0)
        with pytest.raises(_Killed):
            await service.submit(
                "deploy", "alice", config=CONFIGS["alice"][0]
            )
        switch.disarm()
        # bob's traffic is unaffected by alice's dead op
        await service.submit("deploy", "bob", config=CONFIGS["bob"][0])
        assert service.testbed.sessions["bob"].to_state()[
            "deployments"
        ] == ["bob-a"]
        await service.stop()

    asyncio.run(main())


def test_crash_sim_refuses_submits_after_scheduler_stops(tmp_path):
    """Guard the crash simulation itself: once the scheduler is down,
    nothing can sneak more mutations into the 'dead' process."""

    async def main():
        service = await _boot(tmp_path / "state")
        await service.open_session("alice", QUOTA)
        await _crash(service)
        with pytest.raises(ConfigurationError):
            await service.submit(
                "deploy", "alice", config=CONFIGS["alice"][0]
            )

    asyncio.run(main())
