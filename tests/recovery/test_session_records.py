"""Session records: tenant opens and ends are journaled, not snapshotted.

``TestbedService.open_session`` and its evict/close path append one
``session`` record to the process-wide journal, under the service lock,
before they return (DESIGN.md §7). ``JournalReplay.poll`` folds every
such record past the snapshot frontier into the recovered ``sessions``
and the service record's ``next_index``. This suite proves:

* an acknowledged open survives a crash with no snapshot since, from
  the journal alone;
* a record at or below the snapshot frontier is never re-applied;
* evict then re-open of one tenant recovers the final state at the
  tenant's original position;
* a warm follower picks up a record appended between two polls;
* a reopened journal continues its LSNs and commit count;
* a refused open, and an evict killed mid-commit, journal nothing;
* a recovered session never re-mints a cookie its pre-crash rules carry;
* the service writes no snapshot on open or evict, only at ``stop()``.
"""

from __future__ import annotations

import asyncio

import pytest

from repro.recovery import (
    JOURNAL_NAME,
    CommitJournal,
    JournalReplay,
    SnapshotManager,
    install_journal,
    latest_snapshot,
    load_recovery,
    uninstall_journal,
)
from repro.service.app import ControlPlaneService
from repro.tenancy import TenantQuota
from repro.tenancy.service import TestbedService
from repro.tenancy.session import TENANT_COOKIE_SPACE
from repro.util.errors import AdmissionError, ConfigurationError

from tests.integration.test_chaos_recovery import _Killed, _KillSwitch
from tests.service.servicetools import CONFIGS, QUOTA, service_pool
from tests.service.test_service_chaos import _crash


async def _boot(state_dir, *, snapshot_every: int = 8) -> ControlPlaneService:
    service = ControlPlaneService(
        service_pool(), state_dir=str(state_dir),
        snapshot_every=snapshot_every,
    )
    await service.start()
    return service


def _identity(service: ControlPlaneService) -> dict:
    """Every tenant's durable state, in the service's own order."""
    return {
        "sessions": [s.to_state() for s in service.testbed.sessions.values()],
        "next_index": service.testbed._next_index,
    }


def _session_records(state_dir) -> list[dict]:
    return [
        r for r in CommitJournal(state_dir / JOURNAL_NAME).read()
        if r["type"] == "session"
    ]


@pytest.fixture()
def journaled_testbed(tmp_path):
    """A TestbedService with the state directory's journal installed."""
    journal = CommitJournal(tmp_path / "state" / JOURNAL_NAME)
    testbed = TestbedService(service_pool())
    install_journal(journal)
    try:
        yield testbed, journal
    finally:
        uninstall_journal()
        testbed.shutdown()


# --- replay ---------------------------------------------------------------


def test_acknowledged_open_recovers_from_the_journal_alone(tmp_path):
    state_dir = tmp_path / "state"

    async def phase_crash():
        service = await _boot(state_dir)
        await service.open_session("alice", QUOTA)
        await service.open_session("bob", QUOTA)
        before = _identity(service)
        await _crash(service)
        return before

    before = asyncio.run(phase_crash())
    assert latest_snapshot(state_dir) is None  # nothing but the journal

    replayed = load_recovery(state_dir).state
    assert replayed["sessions"] == before["sessions"]
    assert replayed["service"]["next_index"] == before["next_index"]

    async def phase_restart():
        service = await _boot(state_dir)
        try:
            # lease, index, next_seq and the admission index all return
            assert _identity(service) == before
        finally:
            await service.stop()

    asyncio.run(phase_restart())


def test_record_at_or_below_the_snapshot_frontier_is_not_reapplied(tmp_path):
    state_dir = tmp_path / "state"

    async def run():
        service = await _boot(state_dir)
        await service.open_session("alice", QUOTA)  # next_seq 0 journaled
        await service.submit("deploy", "alice", config=CONFIGS["alice"][0])
        await service.stop()  # snapshot past the record: next_seq 1

    asyncio.run(run())
    (record,) = _session_records(state_dir)
    _, frontier = latest_snapshot(state_dir)
    assert record["lsn"] <= frontier
    assert record["session"]["next_seq"] == 0

    (alice,) = load_recovery(state_dir).state["sessions"]
    assert alice["next_seq"] == 1
    assert alice["deployments"] == ["alice-a"]


@pytest.mark.parametrize("snapshot_first", [False, True])
def test_evict_then_reopen_recovers_the_final_state_in_place(
    tmp_path, snapshot_first
):
    state_dir = tmp_path / "state"

    async def phase_crash():
        service = await _boot(state_dir)
        await service.open_session("alice", QUOTA)
        await service.open_session("bob", QUOTA)
        if snapshot_first:  # alice and bob come from the snapshot
            await service.stop()
            service = await _boot(state_dir)
        await service.end_session("alice")
        await service.open_session("alice", QUOTA)
        before = _identity(service)
        await _crash(service)
        return before

    before = asyncio.run(phase_crash())
    assert [s["tenant"] for s in before["sessions"]] == ["alice", "bob"]
    alice = before["sessions"][0]
    assert (alice["state"], alice["index"]) == ("active", 3)

    async def phase_restart():
        service = await _boot(state_dir)
        try:
            assert _identity(service) == before
        finally:
            await service.stop()

    asyncio.run(phase_restart())


def test_warm_follower_picks_up_a_session_record_between_polls(
    journaled_testbed,
):
    testbed, journal = journaled_testbed
    testbed.open_session("alice", QUOTA)
    replay = JournalReplay(journal.path.parent)
    assert replay.poll() == 1
    assert [s["tenant"] for s in replay.result().state["sessions"]] == [
        "alice"
    ]

    testbed.open_session("bob", QUOTA)
    assert replay.poll() == 1
    state = replay.result().state
    assert state["sessions"] == [
        s.to_state() for s in testbed.sessions.values()
    ]
    assert state["service"]["next_index"] == testbed._next_index == 3


def test_reopened_journal_continues_lsn_and_commit_count(tmp_path):
    path = tmp_path / "journal.jsonl"
    first = CommitJournal(path)
    first.append_session({"tenant": "alice"}, 2)
    txn = first.append_intent("deploy", {})
    first.append_commit(txn)
    first.append_session({"tenant": "alice"}, 2)

    second = CommitJournal(path)
    assert len(second) == 4
    assert second.commits_total == 1
    assert second.append_session({"tenant": "bob"}, 3) == 4
    assert [r["type"] for r in second.read()] == [
        "session", "intent", "commit", "session", "session",
    ]


# --- zero mutation --------------------------------------------------------


def test_refused_open_appends_no_record(journaled_testbed):
    testbed, journal = journaled_testbed
    testbed.open_session("alice", QUOTA)
    before = journal.read()

    ports = len(testbed.cluster.wiring.host_ports)
    with pytest.raises(AdmissionError):
        testbed.open_session(
            "bob", TenantQuota(host_ports=ports, tcam_share=500)
        )
    with pytest.raises(ConfigurationError):
        testbed.open_session("alice", QUOTA)  # already active

    assert journal.read() == before
    assert len(journal) == len(before)


def test_evict_killed_mid_commit_appends_no_record(tmp_path):
    state_dir = tmp_path / "state"

    async def run():
        service = await _boot(state_dir)
        await service.open_session("alice", QUOTA)
        await service.submit("deploy", "alice", config=CONFIGS["alice"][0])
        before = _session_records(state_dir)
        switch = _KillSwitch(service.testbed.cluster, 1)
        with pytest.raises(_Killed):
            await service.submit("evict", "alice")
        switch.disarm()
        await _crash(service)
        return before

    before = asyncio.run(run())
    assert _session_records(state_dir) == before
    (alice,) = load_recovery(state_dir).state["sessions"]
    assert alice["state"] == "active"


# --- recovered cookies ----------------------------------------------------


def test_recovered_session_does_not_remint_a_precrash_cookie(tmp_path):
    state_dir = tmp_path / "state"

    async def phase_crash():
        service = await _boot(state_dir)  # cadence 8: no snapshot below
        await service.open_session("alice", QUOTA)
        deployment = await service.submit(
            "deploy", "alice", config=CONFIGS["alice"][0]
        )
        await _crash(service)
        return deployment.cookie

    cookie = asyncio.run(phase_crash())
    assert cookie == 1 * TENANT_COOKIE_SPACE

    async def phase_restart():
        service = await _boot(state_dir)
        try:
            alice = service.testbed.sessions["alice"]
            assert sorted(alice.adopted) == [cookie]
            assert alice._next_seq == 1
            fresh = await service.submit(
                "deploy", "alice", config=CONFIGS["alice"][1]
            )
            assert fresh.cookie == cookie + 1
        finally:
            await service.stop()

    asyncio.run(phase_restart())


# --- snapshot count -------------------------------------------------------


def test_sessions_force_no_snapshot(tmp_path, monkeypatch):
    writes = []
    write = SnapshotManager.write

    def counted(self, *args, **kwargs):
        writes.append(1)
        return write(self, *args, **kwargs)

    monkeypatch.setattr(SnapshotManager, "write", counted)

    async def run():
        service = await _boot(tmp_path / "state", snapshot_every=8)
        await service.open_session("alice", QUOTA)
        await service.submit("deploy", "alice", config=CONFIGS["alice"][0])
        await service.end_session("alice")
        assert len(writes) == 0
        await service.stop()
        assert len(writes) == 1

    asyncio.run(run())
