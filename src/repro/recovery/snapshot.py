"""Controller snapshots and crash recovery (snapshot + journal replay).

A snapshot is a full JSON serialization of the controller's durable
state: per-switch flow tables and groups, per-deployment metadata
(cookie, failed links, override count, topology), tenancy sessions,
and the cookie/metadata allocation counters. Snapshots bound replay:
recovery loads the newest snapshot, then applies only the journal's
*committed* intents and its session records with LSNs past the
snapshot frontier.

:class:`JournalReplay` is the one journal reader. It decodes the
snapshot once into real :class:`~repro.openflow.flowtable.FlowTable`
objects and applies each committed intent with the table's own
``add`` / ``remove`` / ``clear``, so replay cannot drift from what the
live switch did with the same messages. Entry order is preserved end
to end (snapshot order, then replay-append order), and the table's
stable priority sort re-derives exactly the arrival-order tie-break a
live run would have, which is what makes recovered tables
bit-identical to an uninterrupted run's.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.openflow.actions import WriteMetadata
from repro.openflow.channel import FlowMod
from repro.openflow.flowtable import FlowEntry, FlowTable, remove_from_tables
from repro.openflow.switch import SwitchSnapshot
from repro.recovery import codec
from repro.recovery.journal import JOURNAL_NAME, CommitJournal
from repro.telemetry.trace import tail_jsonl
from repro.util.errors import ReproError

SNAPSHOT_SCHEMA = 1
_SNAPSHOT_RE = re.compile(r"^snapshot-(\d{8})\.json$")


def controller_state(
    controller: Any, sessions: Any = None, extra: dict | None = None
) -> dict:
    """Serialize a controller's durable state (JSON-safe).

    Duck-typed on purpose: anything with ``cluster`` / ``deployments``
    and the allocation counters serializes, which keeps this module
    import-independent of :mod:`repro.core.controller`. ``extra`` is
    merged into the top-level state — the control-plane service uses
    it for its own durable records (:mod:`repro.recovery.servicestate`).
    """
    switches = {}
    for name, sw in controller.cluster.switches.items():
        switches[name] = {
            "tables": [
                [codec.encode_entry(tid, e) for e in table.snapshot()]
                for tid, table in enumerate(sw.tables)
            ],
            "groups": [
                codec.encode_group(g) for _, g in sorted(sw.groups.items())
            ],
        }
    deployments = []
    for d in controller.deployments:
        topo = d.topology
        deployments.append({
            "name": topo.name,
            "cookie": d.cookie,
            "lossless": d.lossless,
            "deployment_time": d.deployment_time,
            "failed_links": sorted(d.failed_links),
            "flow_overrides": d.flow_overrides,
            "hybrid": d.hybrid_plan is not None,
            "metadata_base": min(
                (s.metadata_id for s in d.projection.subswitches.values()),
                default=0,
            ),
            "topology": {
                "switches": list(topo.switches),
                "hosts": list(topo.hosts),
                "links": [list(link.endpoints) for link in topo.links],
            },
        })
    state = {
        "schema": SNAPSHOT_SCHEMA,
        "seed": controller.seed,
        "placement": controller.placement,
        "next_cookie": controller._next_cookie,
        "next_metadata": controller._next_metadata,
        "last_commit_strategy": controller.last_commit_strategy,
        "switches": switches,
        "deployments": deployments,
    }
    if sessions is not None:
        state["sessions"] = [s.to_state() for s in sessions]
    if extra:
        state.update(extra)
    return state


def _snapshot_paths(state_dir: Path) -> list[Path]:
    """The complete snapshot files in ``state_dir``, oldest first."""
    if not state_dir.is_dir():
        return []
    return sorted(
        (p for p in state_dir.iterdir() if _SNAPSHOT_RE.match(p.name)),
        key=lambda p: p.name,
    )


class SnapshotManager:
    """Periodic snapshot writer for one state directory.

    ``every`` is the snapshot cadence in *committed transactions*:
    :meth:`maybe_write` consults the journal's commit counter and
    writes a snapshot once ``every`` commits have landed since the
    last one. Writes are atomic (temp file + ``os.replace``), so a
    crash mid-snapshot leaves the previous snapshot intact. Only the
    newest snapshot is ever read, so each write unlinks the one it
    supersedes and opening a directory prunes it to its newest; a crash
    between replace and unlink leaves two, and the newer still wins.
    """

    def __init__(self, state_dir: str | Path, *, every: int = 8) -> None:
        if every < 1:
            raise ReproError(f"snapshot cadence must be >= 1, got {every}")
        self.state_dir = Path(state_dir)
        self.state_dir.mkdir(parents=True, exist_ok=True)
        self.every = every
        self._commits_at_last = 0
        paths = _snapshot_paths(self.state_dir)
        for stale in paths[:-1]:
            stale.unlink()
        #: the snapshot the next write supersedes
        self._last: Path | None = paths[-1] if paths else None

    def journal(self) -> CommitJournal:
        """Open (or create) this state directory's commit journal."""
        return CommitJournal(self.state_dir / JOURNAL_NAME)

    def write(
        self,
        controller: Any,
        journal: CommitJournal,
        sessions: Any = None,
        extra: dict | None = None,
    ) -> Path:
        """Write a snapshot stamped with the journal's current frontier
        (the highest LSN already on disk)."""
        lsn = len(journal) - 1
        state = dict(
            controller_state(controller, sessions=sessions, extra=extra)
        )
        state["lsn"] = lsn
        path = self.state_dir / f"snapshot-{max(lsn, 0):08d}.json"
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(state, sort_keys=True))
        os.replace(tmp, path)
        if self._last is not None and self._last != path:
            self._last.unlink(missing_ok=True)
        self._last = path
        self._commits_at_last = journal.commits_total
        return path

    def maybe_write(
        self,
        controller: Any,
        journal: CommitJournal,
        sessions: Any = None,
        extra: dict | None = None,
    ) -> Path | None:
        """Write a snapshot if ``every`` commits landed since the last
        one; returns the path when a snapshot was written."""
        if journal.commits_total - self._commits_at_last < self.every:
            return None
        return self.write(controller, journal, sessions=sessions, extra=extra)


def latest_snapshot(state_dir: str | Path) -> tuple[dict, int] | None:
    """The newest complete snapshot in ``state_dir`` as ``(state,
    lsn)``, or None when the directory holds no snapshot."""
    paths = _snapshot_paths(Path(state_dir))
    if not paths:
        return None
    state = json.loads(paths[-1].read_text())
    return state, int(state.get("lsn", -1))


@dataclass
class RecoveryResult:
    """What :func:`recover` reconstructed, and from how much input."""

    #: journal frontier of the snapshot replay started from (-1: none)
    snapshot_lsn: int
    #: complete journal records read (intents + commits + aborts +
    #: sessions)
    journal_records: int
    #: committed intents applied past the snapshot frontier
    replayed: int
    #: intents *not* applied: aborted, unresolved (crashed mid-commit),
    #: or already inside the snapshot
    skipped: int
    #: flow entries in the recovered state, total and per switch
    entries: int
    per_switch: dict[str, int] = field(default_factory=dict)
    #: the snapshot's controller state minus its rule state (counters,
    #: deployments, sessions, service record), with the session
    #: records past the frontier applied
    state: dict = field(default_factory=dict)
    #: the recovered rule state: the entries themselves, per switch, in
    #: table order — what :func:`apply_recovery` restores
    switches: dict[str, SwitchSnapshot] = field(default_factory=dict)

    def summary(self) -> dict:
        """JSON-safe roll-up (the ``repro recover`` output)."""
        return {
            "snapshot_lsn": self.snapshot_lsn,
            "journal_records": self.journal_records,
            "replayed": self.replayed,
            "skipped": self.skipped,
            "entries": self.entries,
            "per_switch": dict(sorted(self.per_switch.items())),
            "deployments": [
                d["name"] for d in self.state.get("deployments", [])
            ],
        }


class JournalReplay:
    """The one reader of a state directory: newest snapshot as the
    base, then the commit journal from a byte offset.

    :meth:`poll` consumes whatever complete records the journal gained
    since the last call, so the same object serves a cold restart (poll
    once) and a warm follower (poll again). An intent past the snapshot
    frontier is held by LSN until its outcome arrives: a commit record
    applies it — in commit order, the order hardware saw — an abort
    drops it, and one that never resolves (the process died mid-commit)
    is never applied. That is the whole durability argument: the
    recovered state is the pre- or post-commit state of every
    transaction, never a hybrid. A session record past the frontier
    replaces its tenant's entry in the state's ``sessions`` and sets
    the service record's ``next_index``. Pure — touches no switch.
    """

    def __init__(self, state_dir: str | Path, *, num_tables: int = 4) -> None:
        self.state_dir = Path(state_dir)
        self.num_tables = num_tables
        snap = latest_snapshot(self.state_dir)
        if snap is None:
            snap = ({"schema": SNAPSHOT_SCHEMA, "deployments": []}, -1)
        self._state, self.snapshot_lsn = snap
        self._tables: dict[str, list[FlowTable]] = {}
        self._groups: dict[str, tuple] = {}
        for name, sw_state in self._state.pop("switches", {}).items():
            tables = self._new_tables(len(sw_state["tables"]))
            for table, records in zip(tables, sw_state["tables"]):
                table.add_batch(codec.decode_entry(r)[1] for r in records)
            self._tables[name] = tables
            groups = [codec.decode_group(g) for g in sw_state["groups"]]
            self._groups[name] = tuple((g.group_id, g) for g in groups)
        self._offset = 0
        #: intents past the frontier whose outcome is not yet known
        self._pending: dict[int, dict] = {}
        self._intents = 0
        self.journal_records = 0
        self.replayed = 0

    def _new_tables(self, at_least: int = 0) -> list[FlowTable]:
        return [
            FlowTable(i) for i in range(max(self.num_tables, at_least))
        ]

    def poll(self) -> int:
        """Consume newly flushed journal records; returns how many.

        Every record is decoded before any is applied: one this reader
        cannot decode raises :class:`~repro.recovery.codec.CodecError`
        naming its LSN (a corrupt line: its byte offset) and leaves the
        replay as the call found it (the next call reads the same
        records again)."""
        try:
            records, offset = tail_jsonl(
                self.state_dir / JOURNAL_NAME, self._offset
            )
        except ValueError as exc:
            raise codec.CodecError(f"journal {exc}") from exc
        steps = [self._decode(rec) for rec in records]
        self._offset = offset
        for kind, lsn, payload in steps:
            if kind == "intent":
                self._intents += 1
                if lsn > self.snapshot_lsn:
                    self._pending[lsn] = payload
            elif kind in ("commit", "abort"):
                ops = self._pending.pop(payload, None)
                if kind == "commit" and ops is not None:
                    self._apply(ops)
                    self.replayed += 1
            elif kind == "session" and lsn > self.snapshot_lsn:
                self._apply_session(*payload)
        self.journal_records += len(records)
        return len(records)

    def _decode(self, rec: Any) -> tuple[str, int, Any]:
        """One record as (type, LSN, what applying it takes): a past-
        frontier intent's decoded messages per switch, the transaction a
        commit or abort names, a session record's state and next index."""
        try:
            lsn = codec.field(rec, "lsn", (int,))
            kind = codec.field(rec, "type", (str,))
            fresh = lsn > self.snapshot_lsn
            if kind == "intent" and fresh:
                ops = codec.field(rec, "ops", (dict,)).items()
                return kind, lsn, {
                    sw: self._decode_ops(sw, msgs) for sw, msgs in ops
                }
            if kind in ("commit", "abort"):
                return kind, lsn, codec.field(rec, "txn", (int,))
            if kind == "session" and fresh:
                session = codec.field(rec, "session", (dict,))
                codec.field(session, "tenant", (str,))
                next_index = codec.field(rec, "next_index", (int,))
                return kind, lsn, (session, next_index)
            return kind, lsn, None
        except codec.CodecError as exc:
            where = rec.get("lsn") if isinstance(rec, dict) else rec
            raise codec.CodecError(
                f"journal record {where!r:.60}: {exc}"
            ) from exc

    def _decode_ops(self, switch: str, messages: Any) -> list:
        """One switch's staged messages, every FlowMod for a table the
        switch's replayed pipeline has."""
        width = len(self._tables.get(switch, ())) or self.num_tables
        decoded = [
            codec.decode_message(m)
            for m in codec.typed(messages, (list,), switch)
        ]
        for msg in decoded:
            if isinstance(msg, FlowMod) and not 0 <= msg.table_id < width:
                raise codec.CodecError(f"{switch} has no table {msg.table_id}")
        return decoded

    def _apply_session(self, session: dict, next_index: int) -> None:
        """Replace the tenant's session record in place; a new tenant
        goes last — the order the live service's dict keeps."""
        by_tenant = {s["tenant"]: s for s in self._state.get("sessions", [])}
        by_tenant[session["tenant"]] = session
        self._state["sessions"] = list(by_tenant.values())
        self._state.setdefault("service", {})["next_index"] = next_index

    def _apply(self, ops: dict[str, list]) -> None:
        for switch, messages in ops.items():
            tables = self._tables.get(switch)
            if tables is None:
                tables = self._tables[switch] = self._new_tables()
            for msg in messages:
                if isinstance(msg, FlowMod):
                    tables[msg.table_id].add(FlowEntry(
                        msg.priority, msg.match, msg.instructions,
                        cookie=msg.cookie,
                    ))
                else:
                    remove_from_tables(
                        tables,
                        cookie=msg.cookie,
                        table_id=msg.table_id,
                        priority=msg.priority,
                        match=msg.match,
                    )

    @property
    def pending_transactions(self) -> list[int]:
        """Intent LSNs seen whose outcome is still unknown."""
        return sorted(self._pending)

    def result(self) -> RecoveryResult:
        """The state replayed so far. The result carries the replayer's
        own entry objects; :func:`apply_recovery` hands them to the
        switches, so apply a result once, and last."""
        switches = {
            name: SwitchSnapshot(
                dpid=name,
                tables=tuple(t.snapshot() for t in tables),
                groups=self._groups.get(name, ()),
            )
            for name, tables in sorted(self._tables.items())
        }
        per_switch = {n: s.num_entries for n, s in switches.items()}
        return RecoveryResult(
            snapshot_lsn=self.snapshot_lsn,
            journal_records=self.journal_records,
            replayed=self.replayed,
            skipped=self._intents - self.replayed,
            entries=sum(per_switch.values()),
            per_switch=per_switch,
            state=self._state,
            switches=switches,
        )


def load_recovery(
    state_dir: str | Path, *, num_tables: int = 4
) -> RecoveryResult:
    """Reconstruct the committed controller state: newest snapshot,
    then every committed intent past its frontier."""
    replay = JournalReplay(state_dir, num_tables=num_tables)
    replay.poll()
    return replay.result()


def apply_recovery(result: RecoveryResult, cluster: Any) -> int:
    """Materialize a recovered state onto a cluster's switches via
    snapshot/restore (no control channel: recovery is not subject to
    fault injection, like transaction rollback). Switches absent from
    the recovered state are wiped. Returns entries installed."""
    installed = 0
    for name, sw in cluster.switches.items():
        snap = result.switches.get(name)
        tables, groups = (snap.tables, snap.groups) if snap else ((), ())
        # name every table the switch has: restore leaves the rest alone
        width = len(sw.tables)
        tables = tables[:width] + ((),) * (width - len(tables))
        installed += sw.restore(SwitchSnapshot(sw.dpid, tables, groups))
    return installed
def recover(
    state_dir: str | Path,
    *,
    cluster: Any = None,
    controller: Any = None,
    sessions: Any = None,
) -> RecoveryResult:
    """Full crash recovery: load snapshot + replay journal, then (when
    given a cluster and/or controller) materialize the result.

    * ``cluster`` — switches are restored to the recovered rule state.
    * ``controller`` — allocation counters (``_next_cookie``,
      ``_next_metadata``) and ``last_commit_strategy`` are restored so
      the recovered controller can keep minting without colliding with
      pre-crash cookies. Deployment *objects* are not rebuilt (their
      rules live on the switches; re-adoption is a prepare-level
      concern) — the snapshot records them by name for the operator.
    * ``sessions`` — a mutable list; refilled with
      :class:`~repro.tenancy.session.TenantSession` objects rebuilt
      from the snapshot and the session records past it (cookie
      counters preserved).
    """
    num_tables = 4
    if cluster is not None and cluster.switches:
        num_tables = max(
            len(sw.tables) for sw in cluster.switches.values()
        )
    result = load_recovery(state_dir, num_tables=num_tables)
    if cluster is not None:
        apply_recovery(result, cluster)
    if controller is not None:
        state = result.state
        if "next_cookie" in state:
            controller._next_cookie = state["next_cookie"]
            controller._next_metadata = state["next_metadata"]
            controller.last_commit_strategy = state.get(
                "last_commit_strategy", ""
            )
        # the snapshot's counters are stale by however many commits the
        # replay applied (route swaps mint cookies, deploys consume
        # metadata ids). Re-minting a value that already tags a replayed
        # rule would break cookie-disjointness / metadata isolation, so
        # advance both counters past everything visible in the
        # recovered rule state
        max_cookie = -1
        max_meta = -1
        from repro.tenancy.session import TENANT_COOKIE_SPACE

        for snap in result.switches.values():
            for table in snap.tables:
                for entry in table:
                    if entry.cookie < TENANT_COOKIE_SPACE:
                        max_cookie = max(max_cookie, entry.cookie)
                    if entry.match.metadata is not None:
                        max_meta = max(max_meta, entry.match.metadata)
                    for ins in entry.instructions:
                        if isinstance(ins, WriteMetadata):
                            max_meta = max(max_meta, ins.value)
        controller._next_cookie = max(
            controller._next_cookie, max_cookie + 1
        )
        controller._next_metadata = max(
            controller._next_metadata, max_meta + 1
        )
    if sessions is not None:
        from repro.tenancy.session import TenantSession

        sessions.clear()
        for s in result.state.get("sessions", []):
            sessions.append(TenantSession.from_state(s))
    return result
