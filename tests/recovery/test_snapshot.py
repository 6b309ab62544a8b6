"""Snapshot manager: cadence, atomicity, selection, state capture."""

from __future__ import annotations

import json

import pytest

from repro.recovery import SnapshotManager, recover
from repro.recovery.snapshot import controller_state, latest_snapshot
from repro.util.errors import ReproError

from tests.recovery.conftest import fresh_cluster, installed_state


def test_cadence_must_be_positive(tmp_path):
    with pytest.raises(ReproError):
        SnapshotManager(tmp_path / "state", every=0)


def test_maybe_write_honors_commit_cadence(journaled):
    controller, deployment, manager, journal = journaled
    # the deploy is 1 commit; cadence is 2 — not due yet
    assert manager.maybe_write(controller, journal) is None

    controller.fail_link(deployment, deployment.topology.switch_links[0].index)
    path = manager.maybe_write(controller, journal)
    assert path is not None and path.exists()
    # cadence counter reset: the next check is not due
    assert manager.maybe_write(controller, journal) is None


def test_write_is_atomic_and_stamped_with_frontier(journaled):
    controller, _deployment, manager, journal = journaled
    path = manager.write(controller, journal)
    assert path.name == f"snapshot-{len(journal) - 1:08d}.json"
    # no temp residue: a crash mid-write leaves only complete snapshots
    assert [p.name for p in manager.state_dir.iterdir()
            if p.suffix == ".tmp"] == []
    state = json.loads(path.read_text())
    assert state["lsn"] == len(journal) - 1


def test_latest_snapshot_picks_newest(journaled):
    controller, deployment, manager, journal = journaled
    first = manager.write(controller, journal)
    controller.fail_link(deployment, deployment.topology.switch_links[0].index)
    second = manager.write(controller, journal)
    assert second.name > first.name

    state, lsn = latest_snapshot(manager.state_dir)
    assert lsn == len(journal) - 1
    assert state["lsn"] == lsn


def _snapshots(manager) -> list[str]:
    return sorted(p.name for p in manager.state_dir.glob("snapshot-*.json"))


def test_write_unlinks_the_snapshot_it_supersedes(journaled):
    controller, deployment, manager, journal = journaled
    link = deployment.topology.switch_links[0].index
    for _ in range(3):
        controller.fail_link(deployment, link)
        manager.write(controller, journal)
        controller.restore_links(deployment)
        last = manager.write(controller, journal)
    assert _snapshots(manager) == [last.name]
    # a second write at the same frontier replaces the file in place
    assert manager.write(controller, journal) == last
    assert _snapshots(manager) == [last.name]

    cluster = fresh_cluster()
    result = recover(manager.state_dir, cluster=cluster)
    assert (result.snapshot_lsn, result.replayed) == (len(journal) - 1, 0)
    assert installed_state(cluster) == installed_state(controller.cluster)


def test_crash_between_replace_and_unlink_recovers_from_the_newer(journaled):
    controller, deployment, manager, journal = journaled
    older = manager.write(controller, journal)
    stale = older.read_text()
    controller.fail_link(deployment, deployment.topology.switch_links[0].index)
    newer = manager.write(controller, journal)
    older.write_text(stale)  # the unlink never happened
    assert _snapshots(manager) == [older.name, newer.name]

    cluster = fresh_cluster()
    result = recover(manager.state_dir, cluster=cluster)
    assert result.snapshot_lsn == len(journal) - 1
    assert installed_state(cluster) == installed_state(controller.cluster)
    # the next manager opened on the directory prunes it to the newest,
    # and its first write supersedes that one
    reopened = SnapshotManager(manager.state_dir)
    assert _snapshots(manager) == [newer.name]
    controller.restore_links(deployment)
    latest = reopened.write(controller, journal)
    assert _snapshots(manager) == [latest.name]


def test_latest_snapshot_missing_dir_is_none(tmp_path):
    assert latest_snapshot(tmp_path / "nope") is None
    (tmp_path / "empty").mkdir()
    assert latest_snapshot(tmp_path / "empty") is None


def test_controller_state_captures_rules_and_counters(journaled):
    controller, deployment, _manager, _journal = journaled
    state = controller_state(controller)

    live = installed_state(controller.cluster)
    for name, sw_state in state["switches"].items():
        assert sum(len(t) for t in sw_state["tables"]) == len(live[name])

    (dep,) = state["deployments"]
    assert dep["name"] == deployment.name
    assert dep["cookie"] == deployment.cookie
    assert dep["failed_links"] == sorted(deployment.failed_links)
    assert state["next_cookie"] == controller._next_cookie
    assert state["next_metadata"] == controller._next_metadata
    # JSON-safe end to end
    json.dumps(state)
