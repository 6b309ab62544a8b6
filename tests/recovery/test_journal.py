"""Commit-journal mechanics: LSNs, reopen, torn tails."""

from __future__ import annotations

from repro.openflow.actions import ApplyActions, Output
from repro.openflow.channel import FlowMod
from repro.openflow.match import Match
from repro.recovery import (
    CommitJournal,
    active_journal,
    install_journal,
    uninstall_journal,
)

MOD = FlowMod(
    table_id=0,
    priority=5,
    match=Match(in_port=1),
    instructions=(ApplyActions((Output(2),)),),
    cookie=9,
)


def _ops(*mods):
    return {"phys0": list(mods)}


def test_lsns_are_monotonic_and_typed(tmp_path):
    journal = CommitJournal(tmp_path / "journal.jsonl")
    a = journal.append_intent("deploy", _ops(MOD))
    b = journal.append_commit(a)
    c = journal.append_intent("edit", _ops(MOD))
    d = journal.append_abort(c, reason="boom")
    assert (a, b, c, d) == (0, 1, 2, 3)
    assert len(journal) == 4
    assert journal.commits_total == 1
    records = journal.read()
    assert [r["type"] for r in records] == [
        "intent", "commit", "intent", "abort",
    ]
    assert records[1]["txn"] == a
    assert records[3]["reason"] == "boom"


def test_reopen_continues_lsn_sequence(tmp_path):
    path = tmp_path / "journal.jsonl"
    first = CommitJournal(path)
    lsn = first.append_intent("deploy", _ops(MOD))
    first.append_commit(lsn)

    # a restarted controller appends where the crashed one stopped
    second = CommitJournal(path)
    assert len(second) == 2
    assert second.commits_total == 1
    assert second.append_intent("edit", _ops(MOD)) == 2


def test_torn_tail_is_ignored_until_overwritten(tmp_path):
    path = tmp_path / "journal.jsonl"
    journal = CommitJournal(path)
    lsn = journal.append_intent("deploy", _ops(MOD))
    journal.append_commit(lsn)
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"lsn": 2, "type": "inte')  # crash mid-flush

    assert len(journal.read()) == 2  # torn line not consumed
    reopened = CommitJournal(path)
    assert len(reopened) == 2  # next LSN derived from complete records


def test_install_uninstall_roundtrip(tmp_path):
    assert active_journal() is None
    journal = CommitJournal(tmp_path / "journal.jsonl")
    assert install_journal(journal) is journal
    assert active_journal() is journal
    assert uninstall_journal() is journal
    assert active_journal() is None


def test_a_restart_after_a_torn_tail_keeps_every_later_commit(tmp_path):
    """The restarted journal cuts the torn fragment off before it
    appends: its records start on a line of their own, replay sees
    them, and a second restart hands out fresh LSNs."""
    from repro.recovery import JournalReplay
    from repro.recovery.journal import JOURNAL_NAME

    path = tmp_path / JOURNAL_NAME
    journal = CommitJournal(path)
    journal.append_commit(journal.append_intent("deploy", _ops(MOD)))
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"lsn": 2, "type": "inte')  # crash mid-flush

    restarted = CommitJournal(path)
    restarted.append_commit(restarted.append_intent("edit", _ops(MOD)))
    again = CommitJournal(path)
    assert [r["lsn"] for r in again.read()] == [0, 1, 2, 3]
    assert len(again) == 4
    replay = JournalReplay(tmp_path, num_tables=2)
    assert replay.poll() == 4
    assert replay.replayed == 2
