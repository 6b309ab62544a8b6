"""The controller's append-only commit journal (write-ahead intents)
and the tenant session history.

Every :class:`~repro.openflow.transaction.ControlTransaction` commit
writes (at most) two journal records:

* **intent** — after validation passes, *before* the first control
  message reaches a switch: the full staged per-switch message list,
  serialized with :mod:`repro.recovery.codec` (a rule set staged as
  one run per switch is written out FlowMod by FlowMod, so the record
  does not depend on how the messages were staged). Its LSN names the
  transaction.
* **commit** — after every switch's barrier returns: the transaction
  is durable and replay must apply it.
* **abort** — instead of commit, after a mid-commit failure was rolled
  back: replay must *skip* the intent (the switches were restored).

A crash leaves the tail in one of three shapes, all safe:

* intent with no commit/abort → the process died mid-commit. Replay
  skips it: whatever prefix reached hardware is discarded when the
  recovered controller rebuilds from snapshot + *committed* intents,
  which is exactly the all-or-nothing contract.
* a torn final line → :func:`repro.telemetry.tail_jsonl` leaves it
  unconsumed, and a restarted journal cuts it off before it appends.
* a clean commit/abort → normal.

A tenant session that opens or ends writes one more kind:

* **session** — after the lease is granted or released, before the
  caller is answered: the session's durable identity
  (:meth:`~repro.tenancy.session.TenantSession.to_state`) and the
  service's admission-index counter. Replay past the snapshot frontier
  replaces that tenant's session with it.

Record schema (JSONL, one object per line)::

    {"lsn": 12, "type": "intent", "label": "deploy", "ops":
        {"switch": [{"kind": "mod", ...}, ...], ...}}
    {"lsn": 13, "type": "commit", "txn": 12}
    {"lsn": 14, "type": "abort", "txn": 12, "reason": "..."}
    {"lsn": 15, "type": "session", "session": {"tenant": "alice", ...},
        "next_index": 3}

Like the tracer, one journal can be installed process-wide
(:func:`install_journal`); the transaction layer and the tenancy
service consult :func:`active_journal` and pay one ``None`` check when
durability is off.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from repro.openflow.channel import flow_messages
from repro.recovery.codec import encode_message
from repro.telemetry.trace import tail_jsonl

JOURNAL_NAME = "journal.jsonl"


class CommitJournal:
    """Append-only JSONL journal with monotonic LSNs.

    Reopening an existing journal file continues its LSN sequence, so
    a restarted controller appends where the crashed one stopped: a
    torn final line is truncated away first, so the next record starts
    on a line of its own instead of being glued onto the fragment. A
    corrupt complete line refuses the open (``ValueError``).
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._next_lsn = 0
        self.commits_total = 0
        if self.path.exists():
            records, end = tail_jsonl(self.path)
            if records:
                self._next_lsn = max(r["lsn"] for r in records) + 1
                self.commits_total = sum(
                    1 for r in records if r["type"] == "commit"
                )
            if end < self.path.stat().st_size:
                with self.path.open("r+b") as fh:
                    fh.truncate(end)

    # --- writing ------------------------------------------------------
    def _append(self, record: dict[str, Any]) -> int:
        lsn = self._next_lsn
        self._next_lsn += 1
        record = {"lsn": lsn, **record}
        with self.path.open("a", encoding="utf-8") as fh:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()
        return lsn

    def append_intent(self, label: str, ops: dict[str, list]) -> int:
        """Journal a validated transaction's full staged message set;
        returns the intent LSN (the transaction's name)."""
        return self._append({
            "type": "intent",
            "label": label,
            "ops": {
                name: [encode_message(m) for m in flow_messages(msgs)]
                for name, msgs in ops.items()
            },
        })

    def append_commit(self, txn_lsn: int) -> int:
        self.commits_total += 1
        return self._append({"type": "commit", "txn": txn_lsn})

    def append_abort(self, txn_lsn: int, reason: str = "") -> int:
        return self._append({"type": "abort", "txn": txn_lsn,
                             "reason": reason})

    def append_session(self, state: dict, next_index: int) -> int:
        """Journal one session's state (``TenantSession.to_state()``)
        after it opened or ended, with the service's next admission
        index."""
        return self._append({"type": "session", "session": state,
                             "next_index": next_index})

    # --- reading ------------------------------------------------------
    def read(self) -> list[dict]:
        """Every complete record currently on disk (torn tail skipped)."""
        records, _ = tail_jsonl(self.path)
        return records

    def __len__(self) -> int:
        return self._next_lsn


# --- process-wide journal --------------------------------------------------

_ACTIVE: CommitJournal | None = None


def install_journal(journal: CommitJournal) -> CommitJournal:
    """Make ``journal`` the process-wide commit journal: every
    subsequent ControlTransaction commit writes intent/commit/abort
    records through it, and every TestbedService session open or end
    a session record."""
    global _ACTIVE
    _ACTIVE = journal
    return journal


def uninstall_journal() -> CommitJournal | None:
    """Remove the process-wide journal; returns it for inspection."""
    global _ACTIVE
    journal, _ACTIVE = _ACTIVE, None
    return journal


def active_journal() -> CommitJournal | None:
    return _ACTIVE
